package core

import (
	"context"
	"fmt"
	"sync"

	"goingwild/internal/churn"
	"goingwild/internal/pipeline"
	"goingwild/internal/scanner"
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
// an epoch stream: RunWeeklySeriesResumeContext with nothing to resume
// from and nowhere to save.
func (s *Study) RunWeeklySeriesStreamContext(ctx context.Context, live func(EpochView)) (*churn.Series, error) {
	return s.RunWeeklySeriesResumeContext(ctx, nil, live)
}

// RunWeeklySeriesResumeContext performs the §2.2 longitudinal scans as
// an epoch stream instead of one batch stage: a producer goroutine runs
// the weekly sweeps (in exactly the batch path's clock and seed order,
// so the simulated world evolves identically) and feeds per-week delta
// batches through a bounded queue; the "epoch-apply" stage consumes one
// batch per epoch into a mergeable churn.Tracker; the "series-final"
// finalizer joins the producer and freezes the series. The returned
// Series is identical — byte for byte through every renderer — to what
// RunWeeklySeriesContext produces: live per-epoch output without forking
// the results.
//
// live, when non-nil, is called after each epoch is applied, on the
// consumer side of the queue; like the pipeline observer it is a side
// channel. Per-epoch lag and delta-size metrics land in Cfg.Metrics
// (pipeline.epoch.lag is Timing class; pipeline.delta.size and
// pipeline.epoch.done are deterministic).
//
// store, when non-nil, makes the run resumable to the exact same Series
// from a kill at any instant; a nil store is the same stream entered at
// week 0 with no save hooks installed. Progress is recorded at two
// granularities: mid-sweep, the scanner's rendezvous checkpoints land in
// sweepDocName (tagged with the week); after each epoch's deltas are
// applied, the EpochCommit hook persists the cursor and the tracker's
// frozen state in seriesDocName. On entry a committed cursor skips the
// finished weeks entirely, and a sweep document for the in-flight week
// resumes that sweep from its last rendezvous. One for an
// already-committed week — a crash landed between the epoch commit and
// the next generation — is ignored: replaying a week's sweep from scratch
// is deterministic, so dropped progress costs time, never bytes.
func (s *Study) RunWeeklySeriesResumeContext(ctx context.Context, store SeriesStore, live func(EpochView)) (*churn.Series, error) {
	tracker, cursor, prevSweep, err := s.resumeSeries(store)
	if err != nil {
		return nil, err
	}
	weekly := churn.StudyConfig{
		Order:     s.Cfg.Order,
		Seed:      s.Cfg.ScanSeed,
		Weeks:     s.Cfg.Weeks,
		Blacklist: s.World.ScanBlacklist(),
		StartWeek: cursor,
		Prev:      tracker.Snapshot(),
	}
	if store != nil {
		// Route each week through the resumable sweep so the rendezvous
		// checkpoints reach the store mid-week.
		weekly.Sweep = func(ctx context.Context, week int) (*scanner.SweepResult, error) {
			rc := &scanner.ResumeControl{
				Save: func(sck *scanner.SweepCheckpoint) error {
					if err := store.Update(sweepDocName, weekSweepState{Week: week, Ck: *sck}); err != nil {
						return err
					}
					return store.CheckStop()
				},
			}
			if week == cursor {
				rc.Prev = prevSweep
			}
			return s.Scanner.SweepResumeContext(ctx, s.Cfg.Order, s.Cfg.ScanSeed+uint32(week), s.World.ScanBlacklist(), rc)
		}
	}

	em := pipeline.NewEpochMetrics(s.Cfg.Metrics)
	q := pipeline.NewQueue[churn.EpochDelta](epochQueueDepth)

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
		prodErr = churn.StreamWeekly(prodCtx, s.Scanner, s.Transport, weekly, q.Put)
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
			if store != nil {
				// The producer is done, so no in-flight sweep save can race
				// this removal; it reaches disk with the store's next save.
				store.Drop(sweepDocName)
			}
			return seriesCounts(tracker.Series()), nil
		},
	})
	if store != nil {
		// Commit the cursor after each applied epoch: everything up to and
		// including this week is now derivable from the store alone. The
		// stop check runs after the save, so a first-interrupt run exits
		// with exactly this state on disk.
		eng.EpochCommit = func(ctx context.Context, epoch int) error {
			if err := store.Update(seriesDocName, SeriesCheckpoint{Cursor: epoch + 1, Tracker: tracker.State()}); err != nil {
				return err
			}
			return store.CheckStop()
		}
	}
	if _, err := eng.RunEpochsFrom(ctx, cursor, s.Cfg.Weeks); err != nil {
		return nil, err
	}
	return tracker.Series(), nil
}

// WeeklySeriesStream adds the §2.2 longitudinal scans as the epoch
// stream, through the plan's store if it has one. The stream's epochs run
// on an engine of their own — a plan has none — so its "epoch-apply" and
// "series-final" events arrive inside this stage's.
func (p *Plan) WeeklySeriesStream(live func(EpochView)) *Out[*churn.Series] {
	out := &Out[*churn.Series]{}
	p.Add(pipeline.Stage{
		Name: "weekly-stream",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			var err error
			out.V, err = p.s.RunWeeklySeriesResumeContext(ctx, p.store, live)
			return nil, err
		},
	})
	return out
}
