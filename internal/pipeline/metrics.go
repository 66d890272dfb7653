package pipeline

import "goingwild/internal/metrics"

// durationBucketsMS are the upper bounds (milliseconds) of the stage
// duration histogram: tight at the bottom for in-memory runs, wide at
// the top for order-24 studies.
var durationBucketsMS = []int64{1, 5, 10, 50, 100, 500, 1000, 5000, 10_000, 60_000}

// MetricsObserver returns an Observer that folds every stage event into
// the registry: lifecycle tallies (pipeline.stage.started/done/
// failed/skipped), each stage's reported tuple counts
// (pipeline.count.<name>), and a Timing-class duration histogram plus a
// per-stage Timing gauge of the last run's duration. Like every
// observer it is a pure side channel — the pipeline's results never
// depend on it — and like every metric the lifecycle and tuple-count
// values are deterministic, while the duration series carries the
// Timing class (exact under a fake clock, stripped by determinism
// guards otherwise). A nil registry yields a nil Observer, which Run
// treats as "no observation".
func MetricsObserver(r *metrics.Registry) Observer {
	if r == nil {
		return nil
	}
	started := r.Counter("pipeline.stage.started")
	done := r.Counter("pipeline.stage.done")
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
