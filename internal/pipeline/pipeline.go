// Package pipeline is the measurement pipeline's stage engine. The
// paper's processing chain (Figure 3: sweep → prefilter → domain scans →
// matching → clustering → labeling) is a DAG of stages, and a report in
// internal/core is one plan of such stages rather than a hand-wired
// monolith.
//
// The engine owns three concerns the stages themselves must not:
//
//   - Context propagation. Run checks the context between stages and
//     hands it to every stage, so an order-24 "full Internet" study can
//     be cancelled or deadlined mid-flight.
//   - Timing. Each stage is clocked through an injected scanner.Clock —
//     the same seam the scanner uses — so tests assert on stage timing
//     with a fake clock and production pays one monotonic read per edge.
//   - Observation. An Observer receives a StageEvent at every stage
//     start and finish. The observer is a side channel only: engine
//     results are a pure function of the stages, never of the observer,
//     which is how the determinism contract (DESIGN.md) survives
//     progress reporting.
//
// Execution is deterministic: stages run sequentially in a stable
// topological order (insertion order among ready stages), so two runs of
// the same engine perform the same work in the same order.
//
// Stages degrade instead of failing when marked BestEffort: a
// non-cancellation error from such a stage is recorded in the trace and
// announced as StageDegraded, and the rest of the pipeline runs against
// whatever partial data the stage produced. Required stages (the zero
// policy) abort the run; the stages that never started are announced as
// StageSkipped and listed in the trace, so progress reporting shows
// exactly where a run died.
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
	// BestEffort stages degrade instead of aborting: the failure is
	// recorded in the trace, a StageDegraded event fires, and downstream
	// stages still run against whatever partial data the stage left
	// behind. A context cancellation is never degradable — a dead
	// context aborts the pipeline regardless of policy.
	BestEffort
)

// String names the policy for traces and progress output.
func (p Policy) String() string {
	switch p {
	case Required:
		return "required"
	case BestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Stage is one node of the pipeline DAG.
type Stage struct {
	// Name identifies the stage in events, traces, and Needs edges.
	Name string
	// Needs lists stages that must complete before this one runs.
	Needs []string
	// Policy is how the engine treats this stage's failure. The zero
	// value (Required) aborts the pipeline; BestEffort records the
	// failure and continues.
	Policy Policy
	// Run does the work. The returned counts are recorded in the trace
	// and forwarded to the observer.
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
	// the engine's clock — wall time in production, simulated time under
	// a fake clock.
	Elapsed time.Duration
	// Counts are the stage's reported tuple counts (StageDone only).
	Counts []Count
	// Err is the stage's failure (StageFailed and StageDegraded only).
	Err error
}

// Observer receives stage events. It runs on the engine's goroutine, so
// a slow observer slows the pipeline but can never reorder it.
type Observer func(StageEvent)

// StageResult is one stage the engine ran, recorded in a Trace. A
// successful stage has Counts and a nil Err; a degraded best-effort
// stage has Err set and Degraded true; the required stage that aborted
// the pipeline (at most one, always last) has Err set and Degraded
// false.
type StageResult struct {
	Name    string
	Elapsed time.Duration
	Counts  []Count
	// Err is the stage's failure, nil on success.
	Err error
	// Degraded marks a best-effort stage whose failure was absorbed.
	Degraded bool
}

// Trace records the stages an engine ran, in execution order. It is the
// engine-emitted replacement for hand-maintained stage accounting.
// Every stage that started is present — including the failed one, with
// its Err and timing, so progress reporting can show where a run died.
type Trace struct {
	Stages []StageResult
	// Skipped names the stages that never ran because an earlier
	// required stage failed or the context died, in topological order.
	Skipped []string
}

// Counts concatenates every completed stage's counts in execution order
// — the Figure-3 box flow. Failed and degraded stages contribute
// nothing (their Counts are nil).
func (t *Trace) Counts() []Count {
	var out []Count
	for _, st := range t.Stages {
		out = append(out, st.Counts...)
	}
	return out
}

// Degraded lists the best-effort stages whose failures were absorbed,
// in execution order. Empty on a clean run.
func (t *Trace) Degraded() []StageResult {
	var out []StageResult
	for _, st := range t.Stages {
		if st.Degraded {
			out = append(out, st)
		}
	}
	return out
}

// Engine executes a DAG of stages.
type Engine struct {
	clock    scanner.Clock
	observer Observer
	stages   []Stage
	index    map[string]int
}

// New builds an engine. A nil clock defaults to scanner.SystemClock; a
// nil observer disables event reporting.
func New(clock scanner.Clock, observer Observer) *Engine {
	if clock == nil {
		clock = scanner.SystemClock
	}
	return &Engine{clock: clock, observer: observer, index: map[string]int{}}
}

// Add registers a stage. Names must be unique and non-empty, and Run
// must be set; dependency names are validated by Run (so stages may be
// added in any order).
func (e *Engine) Add(st Stage) error {
	if st.Name == "" {
		return fmt.Errorf("pipeline: stage with empty name")
	}
	if st.Run == nil {
		return fmt.Errorf("pipeline: stage %q has no Run", st.Name)
	}
	if _, dup := e.index[st.Name]; dup {
		return fmt.Errorf("pipeline: duplicate stage %q", st.Name)
	}
	e.index[st.Name] = len(e.stages)
	e.stages = append(e.stages, st)
	return nil
}

// MustAdd is Add for statically-known stage sets; it panics on the
// programmer errors Add reports.
func (e *Engine) MustAdd(st Stage) {
	if err := e.Add(st); err != nil {
		panic(err)
	}
}

// order returns a deterministic topological order: Kahn's algorithm with
// ready stages processed in insertion order.
func (e *Engine) order() ([]int, error) {
	n := len(e.stages)
	indeg := make([]int, n)
	next := make([][]int, n) // dependency -> dependents
	for i, st := range e.stages {
		for _, need := range st.Needs {
			j, ok := e.index[need]
			if !ok {
				return nil, fmt.Errorf("pipeline: stage %q needs unknown stage %q", st.Name, need)
			}
			if j == i {
				return nil, fmt.Errorf("pipeline: stage %q needs itself", st.Name)
			}
			indeg[i]++
			next[j] = append(next[j], i)
		}
	}
	// ready is kept sorted by insertion index: pop the smallest so the
	// execution order is a pure function of Add order, never map order.
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		min := 0
		for k := 1; k < len(ready); k++ {
			if ready[k] < ready[min] {
				min = k
			}
		}
		i := ready[min]
		ready = append(ready[:min], ready[min+1:]...)
		order = append(order, i)
		for _, j := range next[i] {
			indeg[j]--
			if indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if len(order) != n {
		for i, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("pipeline: dependency cycle through stage %q", e.stages[i].Name)
			}
		}
	}
	return order, nil
}

// Run executes every stage in dependency order. A failing Required
// stage (or a context cancellation) stops the pipeline: the failure is
// recorded in the trace with its timing, every stage that never ran is
// listed in trace.Skipped (with a StageSkipped event each), and the
// wrapped error is returned. A failing BestEffort stage degrades
// instead: its error lands in the trace, a StageDegraded event fires,
// and downstream stages still run. The returned trace is valid (if
// partial) even when err is non-nil.
func (e *Engine) Run(ctx context.Context) (*Trace, error) {
	order, err := e.order()
	if err != nil {
		return &Trace{}, err
	}
	trace := &Trace{Stages: make([]StageResult, 0, len(order))}
	for k, i := range order {
		st := e.stages[i]
		// Cancellation checkpoint between stages: a dead context stops
		// the pipeline before the next stage starts any work.
		if err := ctx.Err(); err != nil {
			e.skipRemaining(trace, order[k:])
			return trace, err
		}
		if err := e.runStage(ctx, trace, st); err != nil {
			e.skipRemaining(trace, order[k+1:])
			return trace, err
		}
	}
	return trace, nil
}

// runStage executes one stage, folding timing, trace, and events. It
// returns nil on success and for an absorbed best-effort failure, and
// the wrapped stage error for an abort.
func (e *Engine) runStage(ctx context.Context, trace *Trace, st Stage) error {
	e.emit(StageEvent{Stage: st.Name, Kind: StageStart})
	t0 := e.clock.Now()
	counts, err := st.Run(ctx)
	elapsed := e.clock.Now().Sub(t0)
	if err != nil {
		// A dead context is never degradable: the stage's error is
		// (or raced with) the cancellation, and downstream stages
		// could not run anyway.
		if st.Policy == BestEffort && ctx.Err() == nil {
			trace.Stages = append(trace.Stages, StageResult{Name: st.Name, Elapsed: elapsed, Err: err, Degraded: true})
			e.emit(StageEvent{Stage: st.Name, Kind: StageDegraded, Elapsed: elapsed, Err: err})
			return nil
		}
		trace.Stages = append(trace.Stages, StageResult{Name: st.Name, Elapsed: elapsed, Err: err})
		e.emit(StageEvent{Stage: st.Name, Kind: StageFailed, Elapsed: elapsed, Err: err})
		return fmt.Errorf("pipeline: stage %q: %w", st.Name, err)
	}
	trace.Stages = append(trace.Stages, StageResult{Name: st.Name, Elapsed: elapsed, Counts: counts})
	e.emit(StageEvent{Stage: st.Name, Kind: StageDone, Elapsed: elapsed, Counts: counts})
	return nil
}

// skipRemaining records and announces the stages an aborted run never
// reached, in the topological order they would have run.
func (e *Engine) skipRemaining(trace *Trace, rest []int) {
	for _, i := range rest {
		name := e.stages[i].Name
		trace.Skipped = append(trace.Skipped, name)
		e.emit(StageEvent{Stage: name, Kind: StageSkipped})
	}
}

func (e *Engine) emit(ev StageEvent) {
	if e.observer != nil {
		e.observer(ev)
	}
}
