package wildnet

import (
	"reflect"
	"testing"
)

func TestAttemptsStateRoundTrip(t *testing.T) {
	w := faultyWorld(t, 14, "hostile")
	tr := NewMemTransport(w, VantagePrimary)
	tr.SetTime(At(0))
	// Simulate retransmissions directly through the counter, as SendBatch does.
	for _, rec := range []AttemptRecord{
		{Addr: 9, PayloadHash: 0xabc, N: 3},
		{Addr: 7, PayloadHash: 0xdef, N: 1},
		{Addr: 7, PayloadHash: 0x123, N: 2},
	} {
		for i := uint64(0); i < rec.N; i++ {
			tr.attempts.next(rec.Addr, rec.PayloadHash)
		}
	}
	got := tr.AttemptsState()
	want := []AttemptRecord{
		{Addr: 7, PayloadHash: 0x123, N: 2},
		{Addr: 7, PayloadHash: 0xdef, N: 1},
		{Addr: 9, PayloadHash: 0xabc, N: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AttemptsState = %v, want %v (sorted by addr, then hash)", got, want)
	}

	// Restoring into a fresh transport must recreate the counter exactly:
	// the next transmission of each (addr, hash) observes N predecessors.
	tr2 := NewMemTransport(w, VantagePrimary)
	tr2.SetTime(At(0))
	tr2.RestoreAttempts(got)
	for _, rec := range want {
		if n := tr2.attempts.next(rec.Addr, rec.PayloadHash); n != rec.N {
			t.Fatalf("after restore, next(%d, %#x) = %d, want %d", rec.Addr, rec.PayloadHash, n, rec.N)
		}
	}
	// Restore replaces, never merges.
	tr2.RestoreAttempts(nil)
	if n := tr2.attempts.next(7, 0x123); n != 0 {
		t.Fatalf("RestoreAttempts(nil) left residue: next = %d, want 0", n)
	}
}

func TestAttemptsStateFaultsOff(t *testing.T) {
	w, err := NewWorld(DefaultConfig(14))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemTransport(w, VantagePrimary)
	if got := tr.AttemptsState(); got != nil {
		t.Fatalf("AttemptsState with faults off = %v, want nil", got)
	}
	tr.RestoreAttempts([]AttemptRecord{{Addr: 1, PayloadHash: 2, N: 3}}) // must not panic
}
