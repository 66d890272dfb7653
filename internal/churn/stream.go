package churn

import (
	"context"
	"fmt"
	"sort"

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
// its sink: the report applies it to a Tracker inline (core.Plan.
// WeeklySeries), the serving daemon queues it for an applier that
// contends with readers (resolvesvc.Service.Run — a blocking sink such as
// pipeline.Queue.Put is the backpressure seam: the loop runs only as far
// ahead as the sink allows), dnsscan replays it into a snapshot.
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
// EpochDeltas in week order and maintains the responder snapshot plus
// the per-week aggregates incrementally, so each week's tables can
// render live without a second pass. Its Series output is identical —
// map for map, slice for slice — to what accumulating the full sweeps
// week by week builds (runWeeklyReference in the tests).
type Tracker struct {
	loc      Locator
	retain   map[int]bool
	snapshot []scanner.Responder

	byRCode   map[dnswire.RCode]int
	byCountry map[string]int
	byRIR     map[geodb.RIR]int

	series Series
}

// NewTracker builds a tracker that locates responders with loc and
// retains the responder lists of retainWeeks.
func NewTracker(loc Locator, retainWeeks []int) *Tracker {
	retain := map[int]bool{}
	for _, w := range retainWeeks {
		retain[w] = true
	}
	return &Tracker{
		loc:       loc,
		retain:    retain,
		byRCode:   map[dnswire.RCode]int{},
		byCountry: map[string]int{},
		byRIR:     map[geodb.RIR]int{},
	}
}

// bump adjusts one aggregate bucket, deleting the key when it reaches
// zero: maps built from a full sweep by pure increment carry only >0
// entries, and the incremental maps must match them key for key.
func bump[K comparable](m map[K]int, k K, by int) {
	if n := m[k] + by; n == 0 {
		delete(m, k)
	} else {
		m[k] = n
	}
}

// apply folds one responder change into the aggregates.
func (t *Tracker) apply(r scanner.Responder, by int) {
	bump(t.byRCode, r.RCode, by)
	country, rir := t.loc(r.Addr)
	bump(t.byCountry, country, by)
	bump(t.byRIR, rir, by)
}

// lookup finds the current record of addr in the sorted snapshot.
func (t *Tracker) lookup(addr uint32) (scanner.Responder, bool) {
	i := sort.Search(len(t.snapshot), func(i int) bool { return t.snapshot[i].Addr >= addr })
	if i < len(t.snapshot) && t.snapshot[i].Addr == addr {
		return t.snapshot[i], true
	}
	return scanner.Responder{}, false
}

// Apply consumes one week's delta batch: it advances the snapshot,
// folds the changes into the running aggregates, appends the week's
// observation to the series, and returns that observation so the
// caller can render it live. Weeks must arrive in order; a delta that
// violates the stream contract surfaces as an error.
func (t *Tracker) Apply(d EpochDelta) (*WeekObservation, error) {
	if want := len(t.series.Weeks); d.Week != want {
		return nil, fmt.Errorf("churn: epoch delta for week %d, want week %d", d.Week, want)
	}
	for _, dl := range d.Deltas {
		switch dl.Op {
		case scanner.DeltaAdd:
			t.apply(dl.Responder, +1)
		case scanner.DeltaRemove:
			t.apply(dl.Responder, -1)
		case scanner.DeltaUpdate:
			old, ok := t.lookup(dl.Addr())
			if !ok {
				return nil, fmt.Errorf("churn: delta update of absent target %08x", dl.Addr())
			}
			t.apply(old, -1)
			t.apply(dl.Responder, +1)
		}
	}
	next, err := scanner.ApplyResponderDeltas(t.snapshot, d.Deltas)
	if err != nil {
		return nil, fmt.Errorf("churn: week %d: %w", d.Week, err)
	}
	t.snapshot = next
	obs := WeekObservation{
		Week:      d.Week,
		Total:     len(t.snapshot),
		ByRCode:   copyMap(t.byRCode),
		ByCountry: copyMap(t.byCountry),
		ByRIR:     copyMap(t.byRIR),
	}
	if t.retain[d.Week] {
		// Non-nil even when empty, as a sweep's own responder list is.
		obs.Responders = make([]scanner.Responder, len(t.snapshot))
		copy(obs.Responders, t.snapshot)
	}
	t.series.Weeks = append(t.series.Weeks, obs)
	return &t.series.Weeks[len(t.series.Weeks)-1], nil
}

// Snapshot is the current responder set, sorted by address. The caller
// must not mutate it.
func (t *Tracker) Snapshot() []scanner.Responder { return t.snapshot }

// Series returns the accumulated weekly series.
func (t *Tracker) Series() *Series { return &t.series }

func copyMap[K comparable](m map[K]int) map[K]int {
	out := make(map[K]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
