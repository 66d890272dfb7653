package scanner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"goingwild/internal/wildnet"
)

// resumeWorld builds a world under the named chaos profile plus a fresh
// transport; resumable-sweep tests need a fresh transport per run so
// receiver wiring and fault counters start clean.
func resumeWorld(t *testing.T, order uint, profile string) (*wildnet.World, *wildnet.MemTransport) {
	t.Helper()
	cfg := wildnet.DefaultConfig(order)
	cfg.Faults = wildnet.MustChaosProfile(profile)
	w, err := wildnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, wildnet.NewMemTransport(w, wildnet.VantagePrimary)
}

func resumeOpts(shards int) Options {
	return Options{Workers: 4, Shards: shards, SettleDelay: NoSettle, SweepRetries: 2}
}

// copyCheckpoint deep-copies through JSON, which doubles as a check
// that every checkpoint a sweep emits survives serialization.
func copyCheckpoint(t *testing.T, ck *SweepCheckpoint) *SweepCheckpoint {
	t.Helper()
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatalf("checkpoint does not serialize: %v", err)
	}
	out := new(SweepCheckpoint)
	if err := json.Unmarshal(blob, out); err != nil {
		t.Fatalf("checkpoint does not round-trip: %v", err)
	}
	return out
}

// TestSweepResumeMatchesSweep pins the core equivalence: an
// uninterrupted checkpointing sweep produces exactly the result of the
// plain SweepContext path, across fault profiles and shard counts.
func TestSweepResumeMatchesSweep(t *testing.T) {
	const order = 14
	for _, profile := range []string{"clean", "hostile"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", profile, shards), func(t *testing.T) {
				w, tr := resumeWorld(t, order, profile)
				defer tr.Close()
				want, err := New(tr, resumeOpts(shards)).SweepContext(context.Background(), order, 99, w.ScanBlacklist())
				if err != nil {
					t.Fatal(err)
				}
				tr2 := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
				defer tr2.Close()
				saves := 0
				rc := &ResumeControl{
					EveryBatches: 2,
					Save:         func(ck *SweepCheckpoint) error { saves++; return nil },
				}
				got, err := New(tr2, resumeOpts(shards)).SweepResumeContext(context.Background(), order, 99, w.ScanBlacklist(), rc)
				if err != nil {
					t.Fatal(err)
				}
				if saves == 0 {
					t.Fatal("sweep never checkpointed")
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("resumable sweep diverged: probed %d vs %d, responders %d vs %d",
						got.Probed, want.Probed, got.Total(), want.Total())
				}
			})
		}
	}
}

// TestSweepResumeFromAnyCheckpoint captures every checkpoint an
// uninterrupted run emits, then restarts a brand-new scanner and
// transport from each one. Whatever instant the crash hit — mid-census,
// mid-retry-round, or on a round boundary — the resumed run must land
// on the identical result.
func TestSweepResumeFromAnyCheckpoint(t *testing.T) {
	const order = 14
	const shards = 2
	w, _ := resumeWorld(t, order, "hostile")
	bl := w.ScanBlacklist()

	run := func(prev *SweepCheckpoint) (*SweepResult, []*SweepCheckpoint, error) {
		tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
		defer tr.Close()
		var cks []*SweepCheckpoint
		rc := &ResumeControl{
			Prev:         prev,
			EveryBatches: 2,
			Save: func(ck *SweepCheckpoint) error {
				cks = append(cks, copyCheckpoint(t, ck))
				return nil
			},
		}
		res, err := New(tr, resumeOpts(shards)).SweepResumeContext(context.Background(), order, 7, bl, rc)
		return res, cks, err
	}

	want, cks, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) < 4 {
		t.Fatalf("only %d checkpoints captured; too few to exercise resume", len(cks))
	}
	sawMidRound := false
	for k, ck := range cks {
		if len(ck.Workers) > 0 && !ck.Done {
			sawMidRound = true
		}
		got, _, err := run(ck)
		if err != nil {
			t.Fatalf("resume from checkpoint %d (round %d, done=%v): %v", k, ck.Round, ck.Done, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resume from checkpoint %d (round %d, %d workers, done=%v) diverged: probed %d vs %d, responders %d vs %d",
				k, ck.Round, len(ck.Workers), ck.Done, got.Probed, want.Probed, got.Total(), want.Total())
		}
	}
	if !sawMidRound {
		t.Error("no mid-round checkpoint captured; rendezvous cadence broken")
	}
}

// TestSweepResumeStops pins the orderly-stop contract: when Save
// reports a stop after persisting, the sweep unwinds with that error,
// and resuming from the last saved checkpoint completes identically.
func TestSweepResumeStops(t *testing.T) {
	const order = 14
	w, _ := resumeWorld(t, order, "lossy")
	bl := w.ScanBlacklist()
	errStop := errors.New("stop requested")

	full := func() *SweepResult {
		tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
		defer tr.Close()
		res, err := New(tr, resumeOpts(1)).SweepContext(context.Background(), order, 3, bl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := full()

	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer tr.Close()
	var last *SweepCheckpoint
	saves := 0
	rc := &ResumeControl{
		EveryBatches: 2,
		Save: func(ck *SweepCheckpoint) error {
			last = copyCheckpoint(t, ck)
			saves++
			if saves == 3 {
				return errStop
			}
			return nil
		},
	}
	if _, err := New(tr, resumeOpts(1)).SweepResumeContext(context.Background(), order, 3, bl, rc); !errors.Is(err, errStop) {
		t.Fatalf("interrupted sweep returned %v, want the stop error", err)
	}

	tr2 := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer tr2.Close()
	got, err := New(tr2, resumeOpts(1)).SweepResumeContext(context.Background(), order, 3, bl,
		&ResumeControl{Prev: last, EveryBatches: 2, Save: func(*SweepCheckpoint) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stop+resume diverged from uninterrupted run: probed %d vs %d, responders %d vs %d",
			got.Probed, want.Probed, got.Total(), want.Total())
	}
}

// TestSweepCheckpointAttemptsDeliverableOnly interrupts a hostile sweep
// in the middle of its first retry round. The transport drops probes to
// silent addresses before the fault layer sees them, so at every
// checkpoint the retransmission counters it would serialise — the
// transport's live map, of which SweepCheckpoint.Attempts is the
// multi-shot subset — name only destinations something could answer from:
// an infrastructure DNS server or a visible resolver. (Empty Chinese
// space, which the dispatch keeps for GFW-listed names only, never
// matches a sweep's scan-domain probe.) The interrupted sweep, resumed on
// a fresh transport, must still land on the uninterrupted result.
func TestSweepCheckpointAttemptsDeliverableOnly(t *testing.T) {
	const order = 14
	w, tr := resumeWorld(t, order, "hostile")
	defer tr.Close()
	bl := w.ScanBlacklist()
	errStop := errors.New("stop requested")
	now := tr.Time()

	live := func(u uint32) bool {
		switch role, _ := w.RoleOf(u); role {
		case wildnet.RoleAuthNS, wildnet.RoleTrustedDNS:
			return true
		case wildnet.RoleNone:
			return w.ResolverAt(u, now) && w.VisibleFrom(u, wildnet.VantagePrimary, now)
		}
		return false
	}
	want, err := New(wildnet.NewMemTransport(w, wildnet.VantagePrimary), resumeOpts(2)).
		SweepContext(context.Background(), order, 5, bl)
	if err != nil {
		t.Fatal(err)
	}

	var last *SweepCheckpoint
	entries := 0
	rc := &ResumeControl{
		EveryBatches: 2,
		Save: func(ck *SweepCheckpoint) error {
			last = copyCheckpoint(t, ck)
			// Save runs with every sender parked, so the live map is a
			// consistent cut.
			state := tr.AttemptsState()
			entries = len(state)
			for _, recs := range [][]wildnet.AttemptRecord{state, ck.Attempts} {
				for _, r := range recs {
					if !live(r.Addr) {
						t.Errorf("round %d: attempt entry for %#x, which nothing can answer from", ck.Round, r.Addr)
					}
				}
			}
			if ck.Round >= 1 && len(ck.Workers) > 0 {
				return errStop
			}
			return nil
		},
	}
	if _, err := New(tr, resumeOpts(2)).SweepResumeContext(context.Background(), order, 5, bl, rc); !errors.Is(err, errStop) {
		t.Fatalf("interrupted sweep returned %v, want the stop error", err)
	}
	// One entry per (deliverable target, round): far below the 2^14
	// probes of the census alone, yet not empty.
	if entries == 0 || entries > 2*want.Total()+64 {
		t.Errorf("attempt map held %d entries at the cut with %d responders; want one per deliverable probe", entries, want.Total())
	}

	tr2 := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer tr2.Close()
	got, err := New(tr2, resumeOpts(2)).SweepResumeContext(context.Background(), order, 5, bl,
		&ResumeControl{Prev: last, EveryBatches: 2, Save: func(*SweepCheckpoint) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stop+resume diverged from uninterrupted run: probed %d vs %d, responders %d vs %d",
			got.Probed, want.Probed, got.Total(), want.Total())
	}
}

// TestSweepResumeBudgeted covers the bounded-retransmission path: the
// per-shard streaming budget countdown must pick the same targets the
// materialize-first path picks.
func TestSweepResumeBudgeted(t *testing.T) {
	const order = 14
	w, tr := resumeWorld(t, order, "hostile")
	defer tr.Close()
	bl := w.ScanBlacklist()
	opts := resumeOpts(2)
	opts.RetryBudget = 300
	want, err := New(tr, opts).SweepContext(context.Background(), order, 11, bl)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer tr2.Close()
	got, err := New(tr2, opts).SweepResumeContext(context.Background(), order, 11, bl,
		&ResumeControl{EveryBatches: 2, Save: func(*SweepCheckpoint) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budgeted resumable sweep diverged: probed %d vs %d, responders %d vs %d",
			got.Probed, want.Probed, got.Total(), want.Total())
	}
}

// TestSweepResumeRejectsMismatch guards against resuming the wrong scan.
func TestSweepResumeRejectsMismatch(t *testing.T) {
	w, tr := resumeWorld(t, 14, "clean")
	defer tr.Close()
	prev := &SweepCheckpoint{Order: 14, Seed: 5, Shards: 2}
	_, err := New(tr, resumeOpts(1)).SweepResumeContext(context.Background(), 14, 5, w.ScanBlacklist(),
		&ResumeControl{Prev: prev, Save: func(*SweepCheckpoint) error { return nil }})
	if err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
}
