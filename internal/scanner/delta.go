package scanner

import "fmt"

// DeltaOp is the kind of one responder-set change between two sweeps.
type DeltaOp uint8

const (
	// DeltaAdd introduces a target that was silent in the previous sweep.
	DeltaAdd DeltaOp = iota
	// DeltaUpdate replaces the record of a target that answered both
	// sweeps but changed source, rcode, or answer status.
	DeltaUpdate
	// DeltaRemove drops a target that stopped answering.
	DeltaRemove
)

// String names the op for diagnostics and delta dumps.
func (op DeltaOp) String() string {
	switch op {
	case DeltaAdd:
		return "add"
	case DeltaUpdate:
		return "update"
	case DeltaRemove:
		return "remove"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// ResponderDelta is one typed change record of an epoch's delta batch,
// keyed by target address. For Add and Update, Responder carries the
// target's new record; for Remove it carries the last-seen record, so a
// consumer can account for what vanished (e.g. decrement its rcode
// bucket) without holding its own copy of the previous snapshot.
type ResponderDelta struct {
	Op        DeltaOp
	Responder Responder
}

// Addr is the delta's key: the probed target address.
func (d ResponderDelta) Addr() uint32 { return d.Responder.Addr }

// DiffSweepResponders computes the delta batch that transforms the old
// responder set into the new one. Both inputs must be sorted by Addr
// (the order every sweep result guarantees); the output is sorted by
// Addr too, which is the order ApplyResponderDeltas requires and the
// reason replaying a delta stream is deterministic.
func DiffSweepResponders(old, new []Responder) []ResponderDelta {
	var out []ResponderDelta
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i].Addr < new[j].Addr:
			out = append(out, ResponderDelta{Op: DeltaRemove, Responder: old[i]})
			i++
		case old[i].Addr > new[j].Addr:
			out = append(out, ResponderDelta{Op: DeltaAdd, Responder: new[j]})
			j++
		default:
			if old[i] != new[j] {
				out = append(out, ResponderDelta{Op: DeltaUpdate, Responder: new[j]})
			}
			i++
			j++
		}
	}
	for ; i < len(old); i++ {
		out = append(out, ResponderDelta{Op: DeltaRemove, Responder: old[i]})
	}
	for ; j < len(new); j++ {
		out = append(out, ResponderDelta{Op: DeltaAdd, Responder: new[j]})
	}
	return out
}

// ApplyResponderDeltas replays one delta batch over a snapshot and
// returns the next snapshot, sorted by Addr. Both the snapshot and the
// batch must be sorted by Addr; the merge walk then costs O(n+d) and
// produces exactly one possible output, so replaying the same stream
// always reconstructs the same state. The snapshot slice is not
// modified. Contract violations — an unsorted batch, an Add of a
// present target, an Update or Remove of an absent one — are reported
// as errors rather than repaired, because each one means the producer
// and consumer have drifted and the stream can no longer be trusted.
func ApplyResponderDeltas(snapshot []Responder, deltas []ResponderDelta) ([]Responder, error) {
	out := make([]Responder, 0, len(snapshot)+len(deltas))
	i := 0
	for k, d := range deltas {
		if k > 0 && deltas[k-1].Addr() >= d.Addr() {
			return nil, fmt.Errorf("scanner: delta batch not sorted: %08x after %08x", d.Addr(), deltas[k-1].Addr())
		}
		for i < len(snapshot) && snapshot[i].Addr < d.Addr() {
			out = append(out, snapshot[i])
			i++
		}
		present := i < len(snapshot) && snapshot[i].Addr == d.Addr()
		switch d.Op {
		case DeltaAdd:
			if present {
				return nil, fmt.Errorf("scanner: delta add of present target %08x", d.Addr())
			}
			out = append(out, d.Responder)
		case DeltaUpdate:
			if !present {
				return nil, fmt.Errorf("scanner: delta update of absent target %08x", d.Addr())
			}
			out = append(out, d.Responder)
			i++
		case DeltaRemove:
			if !present {
				return nil, fmt.Errorf("scanner: delta remove of absent target %08x", d.Addr())
			}
			i++
		default:
			return nil, fmt.Errorf("scanner: unknown delta op %d for target %08x", d.Op, d.Addr())
		}
	}
	out = append(out, snapshot[i:]...)
	return out, nil
}
