package churn

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/scanner"
)

// streamConfig is the shared study shape of the reference-vs-stream
// tests; streamRetain are the weeks whose responder lists are kept.
var (
	streamConfig = StudyConfig{Order: 16, Seed: 77, Weeks: 6}
	streamRetain = []int{0, 5}
)

// runReference runs the batch oracle on a fresh world under profile.
func runReference(t *testing.T, profile string) *Series {
	t.Helper()
	r := newChaosRig(t, streamConfig.Order, profile)
	defer r.tr.Close()
	cfg := streamConfig
	cfg.Blacklist = r.w.ScanBlacklist()
	series, err := runWeeklyReference(context.Background(), r.sc, r.tr, r.locator(), cfg, streamRetain)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// runStream runs StreamWeekly into sink on an identically configured
// fresh world, so the sweeps see the same simulated Internet as the
// reference run.
func runStream(t *testing.T, profile string, sink func(context.Context, EpochDelta) error) Locator {
	t.Helper()
	r := newChaosRig(t, streamConfig.Order, profile)
	defer r.tr.Close()
	cfg := streamConfig
	cfg.Blacklist = r.w.ScanBlacklist()
	if err := StreamWeekly(context.Background(), r.sc, r.tr, cfg, sink); err != nil {
		t.Fatal(err)
	}
	return r.locator()
}

// locFromRig builds a locator over a fresh world of the test order —
// location is a pure function of the address and the deterministic
// world geometry, so any same-order world agrees.
func locFromRig(t *testing.T) Locator {
	t.Helper()
	r := newRig(t, streamConfig.Order)
	t.Cleanup(func() { r.tr.Close() })
	return r.locator()
}

// TestStreamWeeklyMatchesBatchSeries is the differential test that let
// the batch loop be deleted: the delta stream replayed through a Tracker
// must equal the batch oracle's series, map for map and responder for
// responder, on a clean and on a hostile network, with the scheduler
// flipped between the two sides.
func TestStreamWeeklyMatchesBatchSeries(t *testing.T) {
	for _, profile := range []string{"clean", "hostile"} {
		t.Run(profile, func(t *testing.T) {
			batch := runReference(t, profile)

			old := runtime.GOMAXPROCS(0)
			flipped := 1
			if old == 1 {
				flipped = 4
			}
			runtime.GOMAXPROCS(flipped)
			var deltas []EpochDelta
			loc := runStream(t, profile, func(_ context.Context, d EpochDelta) error {
				deltas = append(deltas, d)
				return nil
			})
			runtime.GOMAXPROCS(old)

			tr := NewTracker(loc, streamRetain)
			for _, d := range deltas {
				if _, err := tr.Apply(d); err != nil {
					t.Fatal(err)
				}
			}
			got := tr.Series()
			if !reflect.DeepEqual(got, batch) {
				for i := range batch.Weeks {
					if !reflect.DeepEqual(got.Weeks[i], batch.Weeks[i]) {
						t.Errorf("week %d diverged\ngot  %+v\nwant %+v", i, got.Weeks[i], batch.Weeks[i])
					}
				}
				t.Fatal("streamed series != batch series")
			}

			// The tables the binaries print derive from the series alone, so they
			// match too; render one as a sanity anchor.
			if !reflect.DeepEqual(got.CountryFluctuation(10), batch.CountryFluctuation(10)) {
				t.Error("country fluctuation tables diverged")
			}
		})
	}
}

func TestTrackerApplyReturnsLiveObservation(t *testing.T) {
	// Apply's return value is the live per-epoch view the -progress path
	// renders: the tracker consumes the stream as it arrives, no buffering.
	tr := NewTracker(locFromRig(t), streamRetain)
	var obs []WeekObservation
	runStream(t, "clean", func(_ context.Context, d EpochDelta) error {
		o, err := tr.Apply(d)
		if err != nil {
			return err
		}
		obs = append(obs, *o)
		return nil
	})
	if len(obs) != streamConfig.Weeks {
		t.Fatalf("observed %d weeks, want %d", len(obs), streamConfig.Weeks)
	}
	for i, o := range obs {
		if o.Week != i || o.Total == 0 {
			t.Errorf("live observation %d = week %d total %d", i, o.Week, o.Total)
		}
	}
}

func TestTrackerWeekOrderContract(t *testing.T) {
	loc := locFromRig(t)
	tr := NewTracker(loc, nil)
	if _, err := tr.Apply(EpochDelta{Week: 3}); err == nil {
		t.Error("tracker accepted week 3 as the first epoch")
	}
	if _, err := tr.Apply(EpochDelta{Week: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Apply(EpochDelta{Week: 0}); err == nil {
		t.Error("tracker accepted a repeated week")
	}

	// A refused batch leaves no trace: the retry of week 1 reads what a
	// tracker given only the valid batches reads.
	add := func(addrs ...uint32) []scanner.ResponderDelta {
		ds := make([]scanner.ResponderDelta, len(addrs))
		for i, a := range addrs {
			ds[i] = scanner.ResponderDelta{Op: scanner.DeltaAdd, Responder: scanner.Responder{Addr: a, Source: a, RCode: dnswire.RCodeNoError}}
		}
		return ds
	}
	retried, fresh := NewTracker(loc, nil), NewTracker(loc, nil)
	for _, tk := range []*Tracker{retried, fresh} {
		if _, err := tk.Apply(EpochDelta{Week: 0, Deltas: add(10)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := retried.Apply(EpochDelta{Week: 1, Deltas: add(20, 15)}); err == nil {
		t.Fatal("tracker accepted an unsorted batch")
	}
	got, err := retried.Apply(EpochDelta{Week: 1, Deltas: add(15, 20)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Apply(EpochDelta{Week: 1, Deltas: add(15, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != 3 || got.ByRCode[dnswire.RCodeNoError] != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("week 1 after a refused batch = %+v, want %+v", got, want)
	}
}
