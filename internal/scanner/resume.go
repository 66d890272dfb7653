package scanner

import (
	"context"
	"fmt"
	"sync"

	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// Resumable sweeps. SweepResumeContext runs the sweep engine with a
// ResumeControl attached: the sender workers periodically quiesce at a
// rendezvous barrier and a consistent SweepCheckpoint goes to the
// caller's Save hook. A process killed at any instant can restart from
// the last saved checkpoint — at any Workers value — and produce the
// identical SweepResult an uninterrupted run produces:
//
//   - All workers drain one generator, and every probe payload is a pure
//     function of (target, round), so replaying the round from the saved
//     generator position re-sends exactly the probes the dead run had not
//     yet sent.
//   - The world model's packet fates are pure per-packet draws — the
//     only mutable transport state is the retransmission counter, which
//     the checkpoint carries — so a replayed send observes the same
//     fate it would have in the uninterrupted run.
//   - The collector snapshot is taken only while every sender is parked
//     at the barrier, so it can never contain a response to a probe
//     beyond the saved generator position. That matters in retry rounds:
//     the miss filter consults the collector, and a "future" entry would
//     suppress a retransmission the uninterrupted run made.

// SweepCheckpoint is a consistent cut of an in-flight sweep.
type SweepCheckpoint struct {
	// Round is the round in progress: 0 is the census, 1..SweepRetries
	// are retransmission rounds.
	Round int `json:"round"`
	// Gen names the walk (order, seed, shard) and marks how far Round's
	// target generator has advanced: every target before this position has
	// been fully sent. On a round boundary it is the start of the walk.
	Gen lfsr.GeneratorState `json:"gen"`
	// Probed is the census probe count so far (final once Round > 0).
	Probed uint64 `json:"probed"`
	// Responders is the sorted collector content at the cut.
	Responders []Responder `json:"responders,omitempty"`
	// Attempts carries the fault layer's retransmission counters for
	// payloads transmitted more than once at the current simulated
	// instant. Sweep payloads are unique per (target, round) — the
	// anti-caching prefix is round-salted — so this is empty today; it
	// is captured so any future same-payload retransmission within a
	// checkpoint window redraws its fate correctly after a resume.
	Attempts []wildnet.AttemptRecord `json:"attempts,omitempty"`
	// Done marks a finished sweep: the checkpoint holds the complete
	// result and a resume returns it without sending anything.
	Done bool `json:"done"`
}

// ResumeControl wires a resumable sweep to its checkpoint store.
type ResumeControl struct {
	// Prev is the checkpoint to resume from; nil starts fresh.
	Prev *SweepCheckpoint
	// Save persists one checkpoint. It runs with every sender worker
	// quiesced and must not retain the pointer after returning. An
	// error (e.g. checkpoint.ErrStopped from a signal-triggered stop
	// after a successful save) unwinds the sweep.
	Save func(*SweepCheckpoint) error
	// everyBatches is how many send batches the workers dispatch between
	// rendezvous points (default 16; one batch is up to streamBatch
	// probes). Only the package's tests set it, to checkpoint densely.
	everyBatches int
}

// attemptsCarrier is implemented by transports whose fault layer keeps
// retransmission counters (wildnet.MemTransport).
type attemptsCarrier interface {
	AttemptsState() []wildnet.AttemptRecord
	RestoreAttempts([]wildnet.AttemptRecord)
}

// rendezvous is the quiesce barrier checkpoint snapshots require. Every
// worker calls pause after each batch; every `every` batches a snapshot
// falls due and workers park until the last arrival runs snap() — at
// that instant every registered worker sits on a batch boundary and
// nothing is in flight. Errors from snap (including the deliberate stop
// signal) are sticky and unwind every worker.
type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	every   int
	batches int
	active  int
	parked  int
	gen     uint64
	due     bool
	snap    func() error
	err     error
}

func newRendezvous(workers, every int, snap func() error) *rendezvous {
	if every <= 0 {
		every = 16
	}
	r := &rendezvous{active: workers, every: every, snap: snap}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// fire runs the pending snapshot and releases parked workers. Caller
// holds mu; every active worker is parked (or this is the last one).
func (r *rendezvous) fire() {
	if r.err == nil {
		r.err = r.snap()
	}
	r.due = false
	r.parked = 0
	r.gen++
	r.cond.Broadcast()
}

// pause counts one dispatched batch and, when a snapshot is due, parks
// the worker until it is taken.
func (r *rendezvous) pause() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	r.batches++
	if r.batches%r.every == 0 {
		r.due = true
	}
	if !r.due {
		return nil
	}
	r.parked++
	if r.parked == r.active {
		r.fire()
	} else {
		for g := r.gen; r.gen == g; {
			r.cond.Wait()
		}
	}
	return r.err
}

// finish deregisters a worker that has sent everything it pulled. If the
// remaining workers are all parked on a due snapshot, the departing
// worker takes it for them.
func (r *rendezvous) finish() {
	r.mu.Lock()
	r.active--
	if r.due && r.parked == r.active {
		r.fire()
	}
	r.mu.Unlock()
}

// SweepResumeContext is SweepContext with crash-safe checkpoints: it
// periodically saves a consistent SweepCheckpoint through rc.Save and,
// when rc.Prev is set, resumes from it instead of starting over. With rc
// nil (or no Save hook) it is exactly SweepContext. The final SweepResult
// is identical to an uninterrupted SweepContext run with the same
// options, whatever Workers value either run used.
func (s *Scanner) SweepResumeContext(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist, rc *ResumeControl) (*SweepResult, error) {
	return s.sweep(ctx, order, seed, bl, 0, 1, rc)
}

// restoreSweep loads prev into a freshly built run and collector. It
// reports done when prev already holds the complete result.
func (s *Scanner) restoreSweep(run *scanRun, st *sweepCollector, prev *SweepCheckpoint, bl *lfsr.Blacklist) (done bool, err error) {
	g, want := prev.Gen, run.src.(*lfsr.TargetGenerator).State()
	if g.Order != want.Order || g.Seed != want.Seed || g.Shard != want.Shard || g.Of != want.Of {
		return false, fmt.Errorf("scanner: checkpoint is shard %d/%d of an order-%d seed-%d sweep; this run is shard %d/%d of order-%d seed-%d",
			g.Shard, g.Of, g.Order, g.Seed, want.Shard, want.Of, want.Order, want.Seed)
	}
	if !prev.Done && prev.Round > run.rounds {
		return false, fmt.Errorf("scanner: checkpoint round %d exceeds this run's %d retry rounds", prev.Round, run.rounds)
	}
	if run.src, err = lfsr.Resume(g, bl); err != nil {
		return false, err
	}
	for _, r := range prev.Responders {
		st.responses.InsertOnce(r.Addr, r)
	}
	if tc, ok := s.tr.(attemptsCarrier); ok {
		tc.RestoreAttempts(prev.Attempts)
	}
	run.round = prev.Round
	run.probed = prev.Probed
	return prev.Done, nil
}

// checkpointSweep cuts a checkpoint of the run. Callers guarantee no
// sender is in flight: every worker is parked at the rendezvous, or the
// round's workers have all returned.
func (s *Scanner) checkpointSweep(run *scanRun, st *sweepCollector) *SweepCheckpoint {
	run.mu.Lock()
	defer run.mu.Unlock()
	return &SweepCheckpoint{
		Round:      run.round,
		Gen:        run.src.(*lfsr.TargetGenerator).State(),
		Probed:     run.probed,
		Responders: s.collectSweep(st, run.probed).Responders,
		Attempts:   s.snapshotAttempts(),
	}
}

// snapshotAttempts captures the transport's retransmission counters,
// keeping only entries a resume could ever consult: payloads already
// transmitted at least twice at this simulated instant, whose next
// retransmission must observe the right attempt number. Single-shot
// payloads (every sweep probe — targets are probed once per round, and
// rounds salt the payload) are reproduced by the replay itself.
func (s *Scanner) snapshotAttempts() []wildnet.AttemptRecord {
	tc, ok := s.tr.(attemptsCarrier)
	if !ok {
		return nil
	}
	recs := tc.AttemptsState()
	out := recs[:0]
	for _, r := range recs {
		if r.N >= 2 {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
