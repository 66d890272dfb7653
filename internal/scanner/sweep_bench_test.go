package scanner

import (
	"context"
	"strconv"
	"testing"

	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// BenchmarkSweep is the census on its own: one op is one full sweep of an
// order-20 world (2^20 targets, over 99% of them silent) at week 0 and at
// week 45, with the default sender count and no settle wait. ns/probe is
// the sweep's wall time per target; pull_wait, pull, build and send are
// the engine's phase counters per target, summed over the senders:
// pull_wait is the wait for the generator lock and pull its hold, and
// send holds the transport's reject and, past it, the query build. Run
// it with
//
//	go test ./internal/scanner -run '^$' -bench Sweep -benchtime 5x
func BenchmarkSweep(b *testing.B) {
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(20))
	if err != nil {
		b.Fatal(err)
	}
	bl := w.ScanBlacklist()
	for _, week := range []int{0, 45} {
		b.Run("week="+strconv.Itoa(week), func(b *testing.B) {
			tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
			defer tr.Close()
			tr.SetTime(wildnet.At(week))
			reg := metrics.New()
			s := New(tr, Options{SettleDelay: NoSettle, Metrics: reg})
			ctx := context.Background()
			probes := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.SweepContext(ctx, 20, uint32(week)*7919+uint32(i), bl)
				if err != nil {
					b.Fatal(err)
				}
				probes += float64(res.Probed)
			}
			b.StopTimer()
			snap := reg.Snapshot()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/probes, "ns/probe")
			for _, phase := range []string{"pull_wait", "pull", "build", "send"} {
				b.ReportMetric(float64(snap.Counter("scanner.sweep."+phase+"_ns"))/probes, phase+"-ns/probe")
			}
		})
	}
}
