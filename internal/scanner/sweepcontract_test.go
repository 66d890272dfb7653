package scanner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"goingwild/internal/prand"
	"goingwild/internal/wildnet"
)

// sweepContract checks, for one (fault profile, retry rounds) cell,
// everything the one sweep engine promises about Workers:
//
//	(a) SweepContext returns the same result at every worker count;
//	(b) a sweep killed at a seeded probe — in the census or a retry
//	    round — and swept again from the start on a fresh transport at a
//	    *different* worker count lands on that same result: a killed
//	    sweep resumes by sweeping again.
func sweepContract(t *testing.T, profile string, retries int) {
	const order, seed = 14, 99
	w, _ := chaosWorld(t, order, profile)
	bl := w.ScanBlacklist()
	// sweep runs one sweep on a fresh transport, cancelled at probe
	// `after` (never when after is 0), and reports how many probes it sent.
	sweep := func(workers int, after int64) (*SweepResult, int64, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tr := &cancelAfterTransport{inner: wildnet.NewMemTransport(w, wildnet.VantagePrimary), cancel: cancel, after: after}
		defer tr.Close()
		s := New(tr, Options{Workers: workers, SettleDelay: NoSettle, SweepRetries: retries})
		res, err := s.SweepContext(ctx, order, seed, bl)
		return res, tr.sent.Load(), err
	}
	want, sent, err := sweep(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.Total() == 0 {
		t.Fatal("reference sweep found nothing")
	}
	same := func(t *testing.T, what string, got *SweepResult) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverged: probed %d vs %d, responders %d vs %d",
				what, got.Probed, want.Probed, got.Total(), want.Total())
		}
	}
	workers := []int{1, 2, 8}
	for i, n := range workers {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			got, _, err := sweep(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			same(t, "SweepContext", got)

			killAt := 1 + int64(prand.UnitOf(seed, uint64(n))*float64(sent-1))
			if _, _, err := sweep(n, killAt); !errors.Is(err, context.Canceled) {
				t.Fatalf("sweep killed at probe %d/%d returned %v, want context.Canceled", killAt, sent, err)
			}
			again := workers[(i+1)%len(workers)]
			got, _, err = sweep(again, 0)
			if err != nil {
				t.Fatal(err)
			}
			same(t, fmt.Sprintf("kill at probe %d/%d, sweep again at workers=%d", killAt, sent, again), got)
		})
	}
}

// TestSweepResumeMatchesSweep runs the engine contract on a clean world
// (census only) and under every fault profile with the two retry rounds
// the chaos configuration gives it.
func TestSweepResumeMatchesSweep(t *testing.T) {
	t.Run("clean", func(t *testing.T) { sweepContract(t, "clean", 0) })
	for _, profile := range []string{"lossy", "hostile", "flaky"} {
		t.Run(profile, func(t *testing.T) { sweepContract(t, profile, 2) })
	}
}
