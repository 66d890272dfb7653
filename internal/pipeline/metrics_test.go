package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"goingwild/internal/metrics"
)

// TestMetricsObserverFoldsStageEvents runs three stages on a fake clock
// and asserts the full metric fold: lifecycle tallies, per-stage timing
// gauges (exact, because the clock is fake), the duration histogram, and
// tuple counts.
func TestMetricsObserverFoldsStageEvents(t *testing.T) {
	clock := newFakeClock()
	reg := metrics.New()
	err := Run(context.Background(), clock, []Stage{
		{Name: "sweep", Run: func(ctx context.Context) ([]Count, error) {
			clock.Sleep(40 * time.Millisecond)
			return []Count{{"responders", 7}, {"probes", 100}}, nil
		}},
		{Name: "prefilter", Run: func(ctx context.Context) ([]Count, error) {
			clock.Sleep(3 * time.Millisecond)
			return nil, nil
		}},
		{Name: "classify", Run: func(ctx context.Context) ([]Count, error) {
			return []Count{{"responders", 2}}, nil
		}},
	}, MetricsObserver(reg))
	if err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	for name, want := range map[string]uint64{
		"pipeline.stage.started": 3,
		"pipeline.stage.done":    3,
		"pipeline.stage.failed":  0,
		"pipeline.stage.skipped": 0,
		"pipeline.count.probes":  100,
		// Two stages report "responders"; the counter accumulates both.
		"pipeline.count.responders": 9,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauge("pipeline.stage.sweep.ms"); got != 40 {
		t.Errorf("sweep duration gauge = %d, want 40", got)
	}
	if got := s.Gauge("pipeline.stage.prefilter.ms"); got != 3 {
		t.Errorf("prefilter duration gauge = %d, want 3", got)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Name != "pipeline.stage.duration_ms" {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
	if got := s.Histograms[0].Count; got != 3 {
		t.Errorf("duration histogram count = %d, want 3", got)
	}
	if got := s.Histograms[0].Sum; got != 43 {
		t.Errorf("duration histogram sum = %d ms, want 43", got)
	}
}

// TestMetricsObserverCountsSkips: a failing required stage must tally
// failed once and skipped for each stage that never ran.
func TestMetricsObserverCountsSkips(t *testing.T) {
	reg := metrics.New()
	err := Run(context.Background(), newFakeClock(), []Stage{
		{Name: "boom", Run: func(ctx context.Context) ([]Count, error) { return nil, errors.New("fatal") }},
		{Name: "after", Run: func(ctx context.Context) ([]Count, error) { return nil, nil }},
	}, MetricsObserver(reg))
	if err == nil {
		t.Fatal("required-stage failure did not surface")
	}
	s := reg.Snapshot()
	for name, want := range map[string]uint64{
		"pipeline.stage.failed":  1,
		"pipeline.stage.skipped": 1,
		"pipeline.stage.done":    0,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestMetricsObserverNilRegistry: observability off must cost the
// pipeline nothing — a nil registry yields a nil observer.
func TestMetricsObserverNilRegistry(t *testing.T) {
	if MetricsObserver(nil) != nil {
		t.Error("MetricsObserver(nil) is not nil")
	}
}
