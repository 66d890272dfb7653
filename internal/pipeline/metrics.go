package pipeline

import "goingwild/internal/metrics"

// durationBucketsMS are the upper bounds (milliseconds) of the stage
// duration histogram: tight at the bottom for in-memory runs, wide at
// the top for order-24 studies.
var durationBucketsMS = []int64{1, 5, 10, 50, 100, 500, 1000, 5000, 10_000, 60_000}

// MetricsObserver returns an Observer that folds every stage event into
// the registry: lifecycle tallies (pipeline.stage.started/done/
// degraded/failed/skipped), each stage's reported tuple counts
// (pipeline.count.<name>), and a Timing-class duration histogram plus a
// per-stage Timing gauge of the last run's duration. Like every
// observer it is a pure side channel — the engine's results never
// depend on it — and like every metric the lifecycle and tuple-count
// values are deterministic, while the duration series carries the
// Timing class (exact under a fake engine clock, stripped by
// determinism guards otherwise). A nil registry yields a nil Observer,
// which the engine treats as "no observation".
func MetricsObserver(r *metrics.Registry) Observer {
	if r == nil {
		return nil
	}
	started := r.Counter("pipeline.stage.started")
	done := r.Counter("pipeline.stage.done")
	degraded := r.Counter("pipeline.stage.degraded")
	failed := r.Counter("pipeline.stage.failed")
	skipped := r.Counter("pipeline.stage.skipped")
	durations := r.TimingHistogram("pipeline.stage.duration_ms", durationBucketsMS)
	return func(ev StageEvent) {
		switch ev.Kind {
		case StageStart:
			started.Inc()
			return
		case StageDone:
			done.Inc()
		case StageDegraded:
			degraded.Inc()
		case StageFailed:
			failed.Inc()
		case StageSkipped:
			skipped.Inc()
			return
		}
		durations.Observe(ev.Elapsed.Milliseconds())
		r.TimingGauge("pipeline.stage." + ev.Stage + ".ms").Set(ev.Elapsed.Milliseconds())
		for _, c := range ev.Counts {
			if c.Value >= 0 {
				r.Counter("pipeline.count." + c.Name).Add(uint64(c.Value))
			}
		}
	}
}

// deltaSizeBuckets are the upper bounds of the per-epoch delta-batch
// size histogram: zero for quiet epochs, then decades up to the order-24
// scale where a first epoch's "delta" is the entire census.
var deltaSizeBuckets = []int64{0, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// EpochMetrics are the weekly series' per-epoch instruments. Both are
// Deterministic: the number of delta records an epoch produces is a pure
// function of (seed, epoch), so two runs must agree bucket for bucket.
type EpochMetrics struct {
	// DeltaSize is pipeline.delta.size: delta records per epoch batch.
	DeltaSize *metrics.Histogram
	// Epochs is pipeline.epoch.done: epochs applied so far.
	Epochs *metrics.Counter
}

// NewEpochMetrics registers the epoch instruments on r. A nil registry
// yields nil (no-op) handles, matching the rest of the metrics layer.
func NewEpochMetrics(r *metrics.Registry) EpochMetrics {
	if r == nil {
		return EpochMetrics{}
	}
	return EpochMetrics{
		DeltaSize: r.Histogram("pipeline.delta.size", deltaSizeBuckets),
		Epochs:    r.Counter("pipeline.epoch.done"),
	}
}

// TeeObservers fans one event stream out to several observers in
// argument order, skipping nils. It returns nil when every argument is
// nil, so a tee of absent observers costs the engine nothing.
func TeeObservers(obs ...Observer) Observer {
	live := obs[:0:0]
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev StageEvent) {
		for _, o := range live {
			o(ev)
		}
	}
}
