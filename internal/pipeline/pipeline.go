// Package pipeline runs the measurement pipeline's stages. The paper's
// processing chain (Figure 3: sweep → prefilter → domain scans → matching
// → clustering → labeling) is a list of stages, and a report in
// internal/core is one plan of such stages rather than a hand-wired
// monolith.
//
// Run owns three concerns the stages themselves must not:
//
//   - Context propagation. Run checks the context between stages and
//     hands it to every stage, so an order-24 "full Internet" study can
//     be cancelled or deadlined mid-flight.
//   - Timing. Each stage is clocked through an injected scanner.Clock —
//     the same seam the scanner uses — so tests assert on stage timing
//     with a fake clock and production pays one monotonic read per edge.
//   - Observation. An Observer receives a StageEvent at every stage
//     start and finish. The observer is a side channel only: results are
//     a pure function of the stages, never of the observer, which is how
//     the determinism contract (DESIGN.md) survives progress reporting.
//
// Execution is deterministic: stages run one after another in slice
// order, so two runs of the same list perform the same work in the same
// order. A stage is listed after the stages whose results it reads.
//
// Stages degrade instead of failing when marked BestEffort: a
// non-cancellation error from such a stage is announced as StageDegraded,
// and the rest of the pipeline runs against whatever partial data the
// stage produced. Required stages (the zero policy) abort the run; the
// stages that never started are announced as StageSkipped, so progress
// reporting shows exactly where a run died.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"goingwild/internal/scanner"
)

// Count is one named tuple count a stage reports — the box annotations
// of the paper's Figure 3 (e.g. "3-unexpected tuples").
type Count struct {
	Name  string
	Value int
}

// Policy selects how a stage's failure affects the rest of the
// pipeline.
type Policy uint8

const (
	// Required stages abort the pipeline on failure: downstream stages
	// are skipped and Run returns the wrapped error. The zero value.
	Required Policy = iota
	// BestEffort stages degrade instead of aborting: a StageDegraded
	// event fires, and later stages still run against whatever partial
	// data the stage left behind. A context cancellation is never
	// degradable — a dead context aborts the pipeline regardless of
	// policy.
	BestEffort
)

// Stage is one step of the pipeline.
type Stage struct {
	// Name labels the stage in events and metrics.
	Name string
	// Policy is how Run treats this stage's failure. The zero value
	// (Required) aborts the pipeline; BestEffort degrades and continues.
	Policy Policy
	// Run does the work. The returned counts go to the observer.
	Run func(ctx context.Context) ([]Count, error)
}

// EventKind tags a StageEvent.
type EventKind uint8

// Stage lifecycle events.
const (
	// StageStart is emitted immediately before a stage runs.
	StageStart EventKind = iota
	// StageDone is emitted after a stage returns nil.
	StageDone
	// StageFailed is emitted after a stage returns an error (including
	// a context cancellation surfaced by the stage).
	StageFailed
	// StageDegraded is emitted instead of StageFailed when a BestEffort
	// stage returns a non-cancellation error: the pipeline continues.
	StageDegraded
	// StageSkipped is emitted for each stage that never ran because an
	// earlier required stage failed or the context died between stages.
	StageSkipped
)

// String names the kind for progress output.
func (k EventKind) String() string {
	switch k {
	case StageStart:
		return "start"
	case StageDone:
		return "done"
	case StageFailed:
		return "failed"
	case StageDegraded:
		return "degraded"
	case StageSkipped:
		return "skipped"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// StageEvent is one observer notification.
type StageEvent struct {
	// Stage is the stage's name.
	Stage string
	// Kind is the lifecycle edge.
	Kind EventKind
	// Elapsed is the stage's run time (zero for StageStart), measured on
	// Run's clock — wall time in production, simulated time under a fake
	// clock.
	Elapsed time.Duration
	// Counts are the stage's reported tuple counts (StageDone only).
	Counts []Count
	// Err is the stage's failure (StageFailed and StageDegraded only).
	Err error
}

// Observer receives stage events. It runs on Run's goroutine, so a slow
// observer slows the pipeline but can never reorder it.
type Observer func(StageEvent)

// Run executes the stages in slice order, timing each on clock and
// announcing every edge to observe (nil observes nothing). A failing
// Required stage, or a context that dies between stages, stops the run:
// each stage that never ran gets a StageSkipped event and the error is
// returned, wrapped with the stage's name when a stage failed. A failing
// BestEffort stage degrades instead, and the stages after it still run.
func Run(ctx context.Context, clock scanner.Clock, stages []Stage, observe Observer) error {
	emit := func(ev StageEvent) {
		if observe != nil {
			observe(ev)
		}
	}
	skip := func(rest []Stage) {
		for _, st := range rest {
			emit(StageEvent{Stage: st.Name, Kind: StageSkipped})
		}
	}
	for i, st := range stages {
		// Cancellation checkpoint between stages: a dead context stops
		// the pipeline before the next stage starts any work.
		if err := ctx.Err(); err != nil {
			skip(stages[i:])
			return err
		}
		emit(StageEvent{Stage: st.Name, Kind: StageStart})
		t0 := clock.Now()
		counts, err := st.Run(ctx)
		elapsed := clock.Now().Sub(t0)
		switch {
		case err == nil:
			emit(StageEvent{Stage: st.Name, Kind: StageDone, Elapsed: elapsed, Counts: counts})
		case st.Policy == BestEffort && ctx.Err() == nil:
			// A dead context is never degradable: the stage's error is
			// (or raced with) the cancellation, and the stages after it
			// could not run anyway.
			emit(StageEvent{Stage: st.Name, Kind: StageDegraded, Elapsed: elapsed, Err: err})
		default:
			emit(StageEvent{Stage: st.Name, Kind: StageFailed, Elapsed: elapsed, Err: err})
			skip(stages[i+1:])
			return fmt.Errorf("pipeline: stage %q: %w", st.Name, err)
		}
	}
	return nil
}
