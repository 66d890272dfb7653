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
// A stage finishes or the run fails: a stage's error stops the pipeline,
// and the stages that never started are announced as StageSkipped, so
// progress reporting shows exactly where a run died.
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

// Stage is one step of the pipeline.
type Stage struct {
	// Name labels the stage in events and metrics.
	Name string
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
	// StageSkipped is emitted for each stage that never ran because an
	// earlier stage failed or the context died between stages.
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
	// Err is the stage's failure (StageFailed only).
	Err error
}

// Observer receives stage events. It runs on Run's goroutine, so a slow
// observer slows the pipeline but can never reorder it.
type Observer func(StageEvent)

// Run executes the stages in slice order, timing each on clock and
// announcing every edge to observe (nil observes nothing). A failing
// stage, or a context that dies between stages, stops the run: each
// stage that never ran gets a StageSkipped event and the error is
// returned, wrapped with the stage's name when a stage failed.
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
		if err != nil {
			emit(StageEvent{Stage: st.Name, Kind: StageFailed, Elapsed: elapsed, Err: err})
			skip(stages[i+1:])
			return fmt.Errorf("pipeline: stage %q: %w", st.Name, err)
		}
		emit(StageEvent{Stage: st.Name, Kind: StageDone, Elapsed: elapsed, Counts: counts})
	}
	return nil
}
