package churn

import (
	"context"
	"fmt"

	"goingwild/internal/dnswire"
	"goingwild/internal/geodb"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// EpochDelta is one weekly scan expressed as a typed change batch: the
// deltas that transform the previous week's responder set into this
// week's, sorted by target address. It is what StreamWeekly hands its
// sink.
type EpochDelta struct {
	Week   int
	Probed uint64
	Deltas []scanner.ResponderDelta
}

// StreamWeekly is the program's one weekly loop: for each week it
// advances the clock, sweeps (seed Seed+week), diffs the responders
// against the previous week's and hands the result to sink as an
// EpochDelta before the next week starts. What a run does with a week is
// its sink, and there are two: the report applies it to a Tracker inline
// (core.Plan.WeeklySeries), and the serving daemon queues it for an
// applier that commits it to the store while readers contend
// (resolvesvc.Service.Run — a blocking sink such as pipeline.Queue.Put
// is the backpressure seam: the loop runs only as far ahead as the sink
// allows).
// Cancellation checkpoints sit between weeks; a sink error (including a
// closed queue's) aborts the stream.
func StreamWeekly(ctx context.Context, sc *scanner.Scanner, clock Clock, cfg StudyConfig, sink func(context.Context, EpochDelta) error) error {
	var prev []scanner.Responder
	for week := 0; week < cfg.Weeks; week++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		clock.SetTime(wildnet.At(week))
		res, err := sc.SweepContext(ctx, cfg.Order, cfg.Seed+uint32(week), cfg.Blacklist)
		if err != nil {
			return err
		}
		d := EpochDelta{Week: week, Probed: res.Probed, Deltas: scanner.DiffSweepResponders(prev, res.Responders)}
		prev = res.Responders
		if err := sink(ctx, d); err != nil {
			return err
		}
	}
	return nil
}

// Tracker is the streaming collector for the weekly series: it consumes
// EpochDeltas in week order, replays each onto the responder snapshot,
// and counts the week's aggregates from the new snapshot, so each week's
// tables can render live. Its Series output is identical — map for map,
// slice for slice — to what aggregating the full sweeps week by week
// builds (runWeeklyReference in the tests).
type Tracker struct {
	loc      Locator
	retain   map[int]bool
	snapshot []scanner.Responder
	series   Series
}

// NewTracker builds a tracker that locates responders with loc and
// retains the responder lists of retainWeeks.
func NewTracker(loc Locator, retainWeeks []int) *Tracker {
	retain := map[int]bool{}
	for _, w := range retainWeeks {
		retain[w] = true
	}
	return &Tracker{loc: loc, retain: retain}
}

// Apply consumes one week's delta batch: it advances the snapshot,
// counts the week's observation from it, appends that to the series,
// and returns it so the caller can render it live. Weeks must arrive in
// order; a delta that violates the stream contract surfaces as an error
// and leaves the tracker as it was.
func (t *Tracker) Apply(d EpochDelta) (*WeekObservation, error) {
	if want := len(t.series.Weeks); d.Week != want {
		return nil, fmt.Errorf("churn: epoch delta for week %d, want week %d", d.Week, want)
	}
	next, err := scanner.ApplyResponderDeltas(t.snapshot, d.Deltas)
	if err != nil {
		return nil, fmt.Errorf("churn: week %d: %w", d.Week, err)
	}
	t.snapshot = next
	obs := WeekObservation{
		Week:      d.Week,
		Total:     len(next),
		ByRCode:   map[dnswire.RCode]int{},
		ByCountry: map[string]int{},
		ByRIR:     map[geodb.RIR]int{},
	}
	for _, r := range next {
		obs.ByRCode[r.RCode]++
		country, rir := t.loc(r.Addr)
		obs.ByCountry[country]++
		obs.ByRIR[rir]++
	}
	if t.retain[d.Week] {
		// ApplyResponderDeltas builds a new slice every week and never
		// writes its input, so the week's snapshot can be kept as is;
		// it is non-nil even when empty, as a sweep's own list is.
		obs.Responders = next
	}
	t.series.Weeks = append(t.series.Weeks, obs)
	return &t.series.Weeks[len(t.series.Weeks)-1], nil
}

// Series returns the accumulated weekly series.
func (t *Tracker) Series() *Series { return &t.series }
