package scanner

import (
	"context"
	"strconv"
	"testing"

	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// BenchmarkSweep is the census on its own: one op is one full sweep with
// no settle wait. The week cases sweep an order-20 world (2^20 targets,
// over 99% of them silent) at week 0 and at week 45 with the default
// sender count, and week 0 once more on one sender, the serial half of
// the senders-against-cores comparison; the hostile case sweeps an
// order-18 world under the hostile fault profile with two retry rounds,
// as census-hostile does, where the rounds re-send to the silent majority
// and the transport's silent memo rejects them without classifying
// again. ns/probe (ns/target in the hostile case, whose retries send
// more than one probe per target) is the sweep's wall time per target;
// pull_wait, pull, build and send are the engine's phase counters per
// target, in the same unit, summed over the senders: pull_wait is the
// wait for the generator lock r.mu and pull its hold (a generator step
// in round 0, a copy out of round 0's recorded pulls in a retry round),
// build is only the retry rounds' miss filter (a sweep batch is its kept
// targets under the round's template), and send holds the transport's
// reject and, past it, the query build. Run it with
//
//	go test ./internal/scanner -run '^$' -bench Sweep -benchtime 5x
func BenchmarkSweep(b *testing.B) {
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(20))
	if err != nil {
		b.Fatal(err)
	}
	for _, week := range []int{0, 45} {
		b.Run("week="+strconv.Itoa(week), func(b *testing.B) {
			benchSweep(b, w, 20, week, 0, 0, "ns/probe")
		})
	}
	b.Run("week=0,workers=1", func(b *testing.B) {
		benchSweep(b, w, 20, 0, 0, 1, "ns/probe")
	})
	b.Run("hostile", func(b *testing.B) {
		cfg := wildnet.DefaultConfig(18)
		cfg.Faults = wildnet.MustChaosProfile("hostile")
		w, err := wildnet.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSweep(b, w, 18, 0, 2, 0, "ns/target")
	})
}

// benchSweep sweeps w's 2^order space at week b.N times, each with its
// own LFSR seed, the given retry rounds and senders (0 = the default),
// and reports the wall time and the engine's phase counters per target,
// under unit.
func benchSweep(b *testing.B, w *wildnet.World, order uint, week, retries, workers int, unit string) {
	bl := w.ScanBlacklist()
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer tr.Close()
	reg := metrics.New()
	s := New(tr, Options{Workers: workers, SweepRetries: retries, SettleDelay: NoSettle, Metrics: reg})
	ctx := context.Background()
	targets := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every sweep starts at a fresh instant, as a census's week does.
		tr.SetTime(wildnet.At(week))
		res, err := s.SweepContext(ctx, order, uint32(week)*7919+uint32(i), bl)
		if err != nil {
			b.Fatal(err)
		}
		targets += float64(res.Probed)
	}
	b.StopTimer()
	snap := reg.Snapshot()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/targets, unit)
	for _, phase := range []string{"pull_wait", "pull", "build", "send"} {
		b.ReportMetric(float64(snap.Counter("scanner.sweep."+phase+"_ns"))/targets, phase+"-"+unit)
	}
}
