package scanner

import (
	"math/rand"
	"reflect"
	"testing"

	"goingwild/internal/dnswire"
)

// randomResponders builds a sorted responder set over a small address
// space so successive sets overlap heavily — the churn regime deltas
// are built for.
func randomResponders(rng *rand.Rand, space uint32) []Responder {
	var out []Responder
	for addr := uint32(0); addr < space; addr++ {
		if rng.Intn(3) == 0 {
			continue
		}
		out = append(out, Responder{
			Addr:     addr,
			Source:   addr ^ uint32(rng.Intn(2)),
			RCode:    dnswire.RCode(rng.Intn(6)),
			Answered: rng.Intn(2) == 0,
		})
	}
	return out
}

func TestDiffApplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	prev := []Responder(nil)
	for epoch := 0; epoch < 50; epoch++ {
		next := randomResponders(rng, 64)
		deltas := DiffSweepResponders(prev, next)
		got, err := ApplyResponderDeltas(prev, deltas)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if !reflect.DeepEqual(got, next) {
			t.Fatalf("epoch %d: apply(prev, diff(prev, next)) != next\ngot  %v\nwant %v", epoch, got, next)
		}
		prev = next
	}
}

func TestDiffReplayFromEmptyMatchesFinalSnapshot(t *testing.T) {
	// The streaming determinism contract in miniature: replaying every
	// epoch's delta batch over the empty snapshot must land on exactly
	// the last sweep's responder set.
	rng := rand.New(rand.NewSource(42))
	var snapshot, prev []Responder
	var last []Responder
	for epoch := 0; epoch < 20; epoch++ {
		next := randomResponders(rng, 48)
		var err error
		snapshot, err = ApplyResponderDeltas(snapshot, DiffSweepResponders(prev, next))
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		prev, last = next, next
	}
	if !reflect.DeepEqual(snapshot, last) {
		t.Fatalf("replayed snapshot diverged from final sweep\ngot  %v\nwant %v", snapshot, last)
	}
}

func TestDiffClassifiesOps(t *testing.T) {
	r := func(addr uint32, rc dnswire.RCode) Responder {
		return Responder{Addr: addr, Source: addr, RCode: rc}
	}
	old := []Responder{r(1, 0), r(2, 0), r(3, 0)}
	new := []Responder{r(2, 3), r(3, 0), r(4, 0)}
	deltas := DiffSweepResponders(old, new)
	want := []ResponderDelta{
		{Op: DeltaRemove, Responder: r(1, 0)},
		{Op: DeltaUpdate, Responder: r(2, 3)},
		{Op: DeltaAdd, Responder: r(4, 0)},
	}
	if !reflect.DeepEqual(deltas, want) {
		t.Fatalf("deltas = %v, want %v", deltas, want)
	}
	if DiffSweepResponders(old, old) != nil {
		t.Error("diff of identical sets is not empty")
	}
}

func TestApplyRejectsContractViolations(t *testing.T) {
	r := func(addr uint32) Responder { return Responder{Addr: addr, Source: addr} }
	snap := []Responder{r(1), r(3)}
	cases := []struct {
		name   string
		deltas []ResponderDelta
	}{
		{"unsorted batch", []ResponderDelta{{Op: DeltaAdd, Responder: r(5)}, {Op: DeltaAdd, Responder: r(2)}}},
		{"duplicate key", []ResponderDelta{{Op: DeltaAdd, Responder: r(2)}, {Op: DeltaUpdate, Responder: r(2)}}},
		{"add of present", []ResponderDelta{{Op: DeltaAdd, Responder: r(3)}}},
		{"update of absent", []ResponderDelta{{Op: DeltaUpdate, Responder: r(2)}}},
		{"remove of absent", []ResponderDelta{{Op: DeltaRemove, Responder: r(2)}}},
		{"unknown op", []ResponderDelta{{Op: DeltaOp(9), Responder: r(2)}}},
	}
	for _, tc := range cases {
		if _, err := ApplyResponderDeltas(snap, tc.deltas); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The snapshot itself must never be mutated by a failed or
	// successful apply.
	if !reflect.DeepEqual(snap, []Responder{r(1), r(3)}) {
		t.Error("apply mutated its input snapshot")
	}
}
