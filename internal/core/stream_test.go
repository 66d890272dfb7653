package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"goingwild/internal/churn"
	"goingwild/internal/geodb"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// streamCfg is the shared shape of the series tests: a small world under
// a fault profile, enough weeks to exercise add/update/remove deltas.
func streamCfg(t *testing.T, order uint, profile string) Config {
	t.Helper()
	cfg, err := ChaosProfileConfig(order, profile)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Weeks = 6
	return cfg
}

// seriesBatch is the oracle on a fresh study: the batch weekly series the
// program ran until churn.StreamWeekly became its only weekly loop (the
// copy of churn's runWeeklyReference a test of this package can reach) —
// cfg.Weeks full sweeps on the series' clock and seed schedule, each
// aggregated from scratch, the first and last responder lists kept.
func seriesBatch(t *testing.T, cfg Config) *churn.Series {
	t.Helper()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	loc := s.locator()
	series := &churn.Series{}
	for week := 0; week < cfg.Weeks; week++ {
		s.Transport.SetTime(wildnet.At(week))
		res, err := s.Scanner.SweepContext(context.Background(), cfg.Order, cfg.ScanSeed+uint32(week), s.World.ScanBlacklist())
		if err != nil {
			t.Fatal(err)
		}
		obs := churn.WeekObservation{
			Week: week, Total: res.Total(), ByRCode: res.ByRCode,
			ByCountry: map[string]int{}, ByRIR: map[geodb.RIR]int{},
		}
		for _, r := range res.Responders {
			country, rir := loc(r.Addr)
			obs.ByCountry[country]++
			obs.ByRIR[rir]++
		}
		if week == 0 || week == cfg.Weeks-1 {
			obs.Responders = res.Responders
		}
		series.Weeks = append(series.Weeks, obs)
	}
	return series
}

// seriesStream runs the weekly series on a fresh study, as a one-stage
// plan with live watching the epochs.
func seriesStream(t *testing.T, cfg Config, live func(EpochView)) *churn.Series {
	t.Helper()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := s.NewPlan()
	series := p.WeeklySeries(live)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return series.V
}

// TestStreamingSeriesMatchesBatch is the contract that let the batch
// stage be deleted: the plan's series must reproduce the batch oracle
// exactly — deeply equal structures, so every rendering derived from them
// (Figure 1, Tables 1–2; pure functions of the series) is byte-identical
// — on a clean and on a hostile network, and across a GOMAXPROCS flip.
func TestStreamingSeriesMatchesBatch(t *testing.T) {
	for _, profile := range []string{"clean", "hostile"} {
		t.Run(profile, func(t *testing.T) {
			cfg := streamCfg(t, 16, profile)
			batch := seriesBatch(t, cfg)

			var views []EpochView
			stream := seriesStream(t, cfg, func(v EpochView) { views = append(views, v) })
			if !reflect.DeepEqual(stream, batch) {
				t.Fatal("streamed series != batch series")
			}

			// The live views arrive once per week, in order, already aggregated.
			if len(views) != cfg.Weeks {
				t.Fatalf("live callback fired %d times, want %d", len(views), cfg.Weeks)
			}
			for i, v := range views {
				if v.Obs.Week != i || v.Delta.Week != i {
					t.Errorf("view %d carries week %d / delta week %d", i, v.Obs.Week, v.Delta.Week)
				}
				if v.Obs.Total == 0 {
					t.Errorf("week %d live observation is empty", i)
				}
			}
			// After week 0's full-census delta, later weeks are genuinely
			// incremental: updates and removes appear, not just adds.
			if len(views[0].Delta.Deltas) != views[0].Obs.Total {
				t.Errorf("week-0 delta has %d records for %d responders; first epoch must be all adds",
					len(views[0].Delta.Deltas), views[0].Obs.Total)
			}

			old := runtime.GOMAXPROCS(0)
			flipped := 1
			if old == 1 {
				flipped = 4
			}
			runtime.GOMAXPROCS(flipped)
			again := seriesStream(t, cfg, nil)
			runtime.GOMAXPROCS(old)
			if !reflect.DeepEqual(again, batch) {
				t.Fatalf("streamed series diverges from batch at GOMAXPROCS=%d", flipped)
			}
		})
	}
}

// TestStreamingReplayReproducesBatchSnapshot is the delta-replay
// property at the core layer: folding every epoch's delta batch over
// the empty snapshot — which is exactly what the tracker does — must
// land on the batch run's final retained responder set, byte for byte.
func TestStreamingReplayReproducesBatchSnapshot(t *testing.T) {
	cfg := streamCfg(t, 16, "clean")
	batch := seriesBatch(t, cfg)

	var deltas []churn.EpochDelta
	stream := seriesStream(t, cfg, func(v EpochView) { deltas = append(deltas, v.Delta) })
	if len(stream.Last().Responders) == 0 {
		t.Fatal("no final responders to compare")
	}

	// Replay through the scanner delta layer alone, with no tracker in
	// the loop, as dnsscan -epochs does.
	var state []scanner.Responder
	for _, d := range deltas {
		var err error
		state, err = scanner.ApplyResponderDeltas(state, d.Deltas)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(state, batch.Last().Responders) {
		t.Fatal("replayed final snapshot != batch final responder set")
	}
}

// TestStreamingProducerFailurePropagates cancels the run from inside the
// live callback at epoch 2 and checks the error surfaces before the last
// week instead of a truncated success.
func TestStreamingProducerFailurePropagates(t *testing.T) {
	cfg := streamCfg(t, 14, "clean")
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := s.NewPlan()
	p.WeeklySeries(func(EpochView) {
		calls++
		if calls == 2 {
			cancel()
		}
	})
	if err := p.Run(ctx); err == nil {
		t.Fatal("cancelled stream reported success")
	}
	if calls >= cfg.Weeks {
		t.Errorf("stream ran all %d weeks despite cancellation", calls)
	}
}
