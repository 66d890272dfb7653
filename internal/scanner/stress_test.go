package scanner

import (
	"context"
	"fmt"
	"testing"
	"time"

	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// TestSweepStressParallel drives several full sweeps at once, each with
// its own world and a wide worker pool. Its job is to give the race
// detector concurrent coverage of the engine's fan-out, the shared rate
// limiter, and the receiver path (see `make race`).
func TestSweepStressParallel(t *testing.T) {
	t.Parallel()
	for i := 0; i < 4; i++ {
		seed := uint32(100 + i)
		t.Run(fmt.Sprintf("world%d", i), func(t *testing.T) {
			t.Parallel()
			w, tr := testWorld(t, 14)
			defer tr.Close()
			reg := metrics.New()
			s := New(tr, Options{Workers: 16, RatePPS: 2_000_000, SettleDelay: NoSettle, Metrics: reg})
			res, err := s.SweepContext(context.Background(), 14, seed, w.ScanBlacklist())
			if err != nil {
				t.Fatal(err)
			}
			if res.Total() == 0 {
				t.Fatal("stress sweep found no responders")
			}
			if sent, recv := reg.Snapshot().Traffic(); sent != res.Probed || recv < uint64(res.Total()) {
				t.Errorf("registry missed traffic: sent=%d recv=%d for %d probes, %d responders", sent, recv, res.Probed, res.Total())
			}
		})
	}
}

// TestSweepDeterministicAcrossWorkerCounts pins the determinism contract
// under concurrency: the responder list must be identical no matter how
// many goroutines raced to send the probes. Loss stays at its default —
// the world draws it per packet, not per arrival order, so even the
// dropped set must not depend on scheduling.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	var first *SweepResult
	for _, workers := range []int{1, 4, 16} {
		w, err := wildnet.NewWorld(wildnet.DefaultConfig(14))
		if err != nil {
			t.Fatal(err)
		}
		tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
		s := New(tr, Options{Workers: workers, SettleDelay: time.Millisecond})
		res, err := s.SweepContext(context.Background(), 14, 77, w.ScanBlacklist())
		tr.Close()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if len(res.Responders) != len(first.Responders) {
			t.Fatalf("workers=%d found %d responders, workers=1 found %d",
				workers, len(res.Responders), len(first.Responders))
		}
		for i, r := range res.Responders {
			if r != first.Responders[i] {
				t.Fatalf("workers=%d responder[%d] = %+v, workers=1 has %+v",
					workers, i, r, first.Responders[i])
			}
		}
	}
}
