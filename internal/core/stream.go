package core

import (
	"context"

	"goingwild/internal/churn"
	"goingwild/internal/pipeline"
)

// EpochView is the live per-epoch slice handed to WeeklySeries' callback
// after each week's deltas are applied: the week's full observation (for
// incremental Figure-1/Table-1 rendering) and the delta batch that
// produced it.
type EpochView struct {
	Obs   *churn.WeekObservation
	Delta churn.EpochDelta
}

// deltaSizeBuckets are the upper bounds of the per-epoch delta-batch
// size histogram: zero for quiet epochs, then decades up to the order-24
// scale where a first epoch's "delta" is the entire census.
var deltaSizeBuckets = []int64{0, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// WeeklySeries adds the §2.2 longitudinal scans (Figure 1 and, via the
// retained endpoints, Tables 1–2) as the one stage "weekly-scans":
// churn.StreamWeekly — the program's only weekly loop — into an inline
// sink that applies each week's deltas to a churn.Tracker, which counts
// the week from its replayed snapshot, before the next week is swept.
// There is nothing between the sweep and the apply to overlap (diff +
// apply cost about a millisecond a week), so there is no producer
// goroutine and no queue; the stream's other sink, the serving daemon,
// whose applier contends with readers, keeps its own
// (resolvesvc.Service.Run).
//
// live, when non-nil, is called after each epoch is applied; like the
// pipeline observer it is a side channel. Per-epoch delta-size and
// epoch-count metrics land in Cfg.Metrics (pipeline.delta.size,
// pipeline.epoch.done; both deterministic).
func (p *Plan) WeeklySeries(live func(EpochView)) *Out[*churn.Series] {
	s, out := p.s, &Out[*churn.Series]{}
	p.Add(pipeline.Stage{
		Name: "weekly-scans",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			tracker := churn.NewTracker(s.locator(), []int{0, s.Cfg.Weeks - 1})
			weekly := churn.StudyConfig{
				Order:     s.Cfg.Order,
				Seed:      s.Cfg.ScanSeed,
				Weeks:     s.Cfg.Weeks,
				Blacklist: s.World.ScanBlacklist(),
			}
			deltaSize := s.Cfg.Metrics.Histogram("pipeline.delta.size", deltaSizeBuckets)
			epochs := s.Cfg.Metrics.Counter("pipeline.epoch.done")
			err := churn.StreamWeekly(ctx, s.Scanner, s.Transport, weekly, func(_ context.Context, d churn.EpochDelta) error {
				deltaSize.Observe(int64(len(d.Deltas)))
				obs, err := tracker.Apply(d)
				if err != nil {
					return err
				}
				epochs.Inc()
				if live != nil {
					live(EpochView{Obs: obs, Delta: d})
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			out.V = tracker.Series()
			counts := []pipeline.Count{{Name: "weeks scanned", Value: len(out.V.Weeks)}}
			if last := out.V.Last(); last != nil {
				counts = append(counts, pipeline.Count{Name: "final-week responders", Value: last.Total})
			}
			return counts, nil
		},
	})
	return out
}
