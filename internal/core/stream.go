package core

import (
	"context"
	"fmt"
	"sync"

	"goingwild/internal/churn"
	"goingwild/internal/pipeline"
)

// epochQueueDepth bounds the delta queue between the sweep producer and
// the apply stage: the producer can run at most this many weekly scans
// ahead of the consumer before Put blocks. Small on purpose — the seam
// exists for backpressure, not buffering.
const epochQueueDepth = 2

// EpochView is the live per-epoch slice handed to the streaming
// callback after each week's deltas are applied: the week's full
// observation (for incremental Figure-1/Table-1 rendering), the delta
// batch that produced it, and the consumer's lag behind the producer at
// dequeue time.
type EpochView struct {
	Obs   *churn.WeekObservation
	Delta churn.EpochDelta
	Lag   int
}

// RunWeeklySeriesStreamContext performs the §2.2 longitudinal scans as
// an epoch stream instead of one batch stage: a producer goroutine runs
// the weekly sweeps (in exactly the batch path's clock and seed order,
// so the simulated world evolves identically) and feeds per-week delta
// batches through a bounded queue; the "epoch-apply" stage consumes one
// batch per epoch into a mergeable churn.Tracker; the "series-final"
// finalizer joins the producer and freezes the series. The returned
// Series is identical — byte for byte through every renderer — to what
// RunWeeklySeriesContext produces, which is the whole point: live
// per-epoch output without forking the results.
//
// live, when non-nil, is called after each epoch is applied, on the
// consumer side of the queue; like the pipeline observer it is a side
// channel and must not be used to feed results back in. Per-epoch lag
// and delta-size metrics land in Cfg.Metrics (pipeline.epoch.lag is
// Timing class; pipeline.delta.size and pipeline.epoch.done are
// deterministic).
func (s *Study) RunWeeklySeriesStreamContext(ctx context.Context, live func(EpochView)) (*churn.Series, error) {
	em := pipeline.NewEpochMetrics(s.Cfg.Metrics)
	q := pipeline.NewQueue[churn.EpochDelta](epochQueueDepth)
	tracker := churn.NewTracker(s.locator(), []int{0, s.Cfg.Weeks - 1})

	// The producer owns the queue: it alone calls Put and closes it when
	// the stream ends (normally or not). Its context is cancelled when
	// this function returns, so an abort on the consumer side — a failed
	// apply, a dead caller context — can never strand it blocked on Put.
	prodCtx, cancelProd := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancelProd()
	var prodErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer q.Close()
		prodErr = churn.StreamWeekly(prodCtx, s.Scanner, s.Transport, churn.StudyConfig{
			Order:     s.Cfg.Order,
			Seed:      s.Cfg.ScanSeed,
			Weeks:     s.Cfg.Weeks,
			Blacklist: s.World.ScanBlacklist(),
		}, func(ctx context.Context, d churn.EpochDelta) error {
			return q.Put(ctx, d)
		})
	}()

	eng := s.engine()
	eng.MustAdd(pipeline.Stage{
		Name: "epoch-apply",
		RunEpoch: func(ctx context.Context, epoch int) ([]pipeline.Count, error) {
			d, ok, err := q.Get(ctx)
			if err != nil {
				return nil, err
			}
			if !ok {
				// The queue's close happens-after the producer's error
				// write, so prodErr is settled here.
				if prodErr != nil {
					return nil, prodErr
				}
				return nil, fmt.Errorf("core: epoch stream ended before epoch %d", epoch)
			}
			lag := q.Len()
			em.Lag.Set(int64(lag))
			em.DeltaSize.Observe(int64(len(d.Deltas)))
			obs, err := tracker.Apply(d)
			if err != nil {
				return nil, err
			}
			em.Epochs.Inc()
			if live != nil {
				live(EpochView{Obs: obs, Delta: d, Lag: lag})
			}
			return []pipeline.Count{
				{Name: "epoch deltas", Value: len(d.Deltas)},
				{Name: "week responders", Value: obs.Total},
			}, nil
		},
	})
	eng.MustAdd(pipeline.Stage{
		Name:  "series-final",
		Needs: []string{"epoch-apply"},
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			// Every epoch is applied; the producer has nothing left to
			// send, so the join is immediate.
			wg.Wait()
			if prodErr != nil {
				return nil, prodErr
			}
			series := tracker.Series()
			counts := []pipeline.Count{{Name: "weeks scanned", Value: len(series.Weeks)}}
			if len(series.Weeks) > 0 {
				counts = append(counts, pipeline.Count{Name: "final-week responders", Value: series.Last().Total})
			}
			return counts, nil
		},
	})
	if _, err := s.runEngineEpochs(ctx, eng, s.Cfg.Weeks); err != nil {
		return nil, err
	}
	return tracker.Series(), nil
}

// runEngineEpochs is runEngine's streaming twin: it executes the engine
// in epoch mode and folds its degradation record into the study-wide
// Degraded list before handing the trace back.
func (s *Study) runEngineEpochs(ctx context.Context, eng *pipeline.Engine, epochs int) (*pipeline.Trace, error) {
	return s.runEngineEpochsFrom(ctx, eng, 0, epochs)
}

// runEngineEpochsFrom is runEngineEpochs entering the stream at a
// resumed epoch cursor.
func (s *Study) runEngineEpochsFrom(ctx context.Context, eng *pipeline.Engine, first, epochs int) (*pipeline.Trace, error) {
	trace, err := eng.RunEpochsFrom(ctx, first, epochs)
	for _, st := range trace.Degraded() {
		s.Degraded = append(s.Degraded, DegradedStage{Stage: st.Name, Err: st.Err.Error()})
	}
	return trace, err
}
