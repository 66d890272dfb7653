package scanner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"goingwild/internal/lfsr"
	"goingwild/internal/prand"
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

func resumeOpts(workers int) Options {
	return Options{Workers: workers, SettleDelay: NoSettle, SweepRetries: 2}
}

// midRound reports whether ck was cut at a rendezvous inside a round
// rather than on a round boundary (where the walk is back at its start).
func midRound(ck *SweepCheckpoint) bool { return ck.Gen.Emitted > uint64(ck.Gen.Shard) }

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

// sweepContract checks, for one (fault profile, retry rounds) cell,
// everything the one sweep engine promises about Workers and shards:
//
//	(a) SweepContext returns the same result at every worker count;
//	(b) a checkpointing sweep stopped at a seeded rendezvous and resumed
//	    at a *different* worker count lands on that same result;
//	(c) the SweepShardContext shards of a 1-way and a 4-way split union
//	    to it.
func sweepContract(t *testing.T, profile string, retries int) {
	const order, seed = 14, 99
	ctx := context.Background()
	w, _ := resumeWorld(t, order, profile)
	bl := w.ScanBlacklist()
	newScanner := func(workers int) (*Scanner, func() error) {
		tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
		return New(tr, Options{Workers: workers, SettleDelay: NoSettle, SweepRetries: retries}), tr.Close
	}
	sweep := func(workers int, rc *ResumeControl) (*SweepResult, error) {
		s, closeTr := newScanner(workers)
		defer closeTr()
		return s.SweepResumeContext(ctx, order, seed, bl, rc)
	}
	want, err := sweep(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Total() == 0 {
		t.Fatal("reference sweep found nothing")
	}
	same := func(t *testing.T, what string, got *SweepResult) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverged: probed %d vs %d, responders %d vs %d",
				what, got.Probed, want.Probed, got.Total(), want.Total())
		}
	}
	errStop := errors.New("stop requested")
	workers := []int{1, 2, 8}
	for i, n := range workers {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			got, err := sweep(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			same(t, "SweepContext", got)

			// An uninterrupted checkpointing run, to learn how many
			// rendezvous the sweep has to stop at.
			saves := 0
			got, err = sweep(n, &ResumeControl{everyBatches: 2, Save: func(*SweepCheckpoint) error { saves++; return nil }})
			if err != nil {
				t.Fatal(err)
			}
			if saves == 0 {
				t.Fatal("sweep never checkpointed")
			}
			same(t, "uninterrupted checkpointing sweep", got)

			stopAt := 1 + int(prand.UnitOf(seed, uint64(n))*float64(saves))
			var last *SweepCheckpoint
			seen := 0
			_, err = sweep(n, &ResumeControl{everyBatches: 2, Save: func(ck *SweepCheckpoint) error {
				last = copyCheckpoint(t, ck)
				if seen++; seen == stopAt {
					return errStop
				}
				return nil
			}})
			if !errors.Is(err, errStop) {
				t.Fatalf("sweep stopped at save %d/%d returned %v, want the stop error", stopAt, saves, err)
			}
			resumeWith := workers[(i+1)%len(workers)]
			got, err = sweep(resumeWith, &ResumeControl{Prev: last, everyBatches: 2, Save: func(*SweepCheckpoint) error { return nil }})
			if err != nil {
				t.Fatalf("resume from save %d/%d (round %d) at workers=%d: %v", stopAt, saves, last.Round, resumeWith, err)
			}
			same(t, fmt.Sprintf("stop at save %d/%d (round %d), resume at workers=%d", stopAt, saves, last.Round, resumeWith), got)
		})
	}
	for _, of := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", of), func(t *testing.T) {
			parts := make([]*SweepResult, of)
			for shard := range parts {
				s, closeTr := newScanner(2)
				parts[shard], err = s.SweepShardContext(ctx, order, seed, bl, shard, of)
				closeTr()
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := MergeSweepResults(parts)
			if err != nil {
				t.Fatal(err)
			}
			same(t, fmt.Sprintf("%d-shard union", of), got)
		})
	}
}

// TestSweepResumeMatchesSweep runs the engine contract on a clean world
// (census only) and under every fault profile with the two retry rounds
// the chaos configuration gives it.
func TestSweepResumeMatchesSweep(t *testing.T) {
	t.Run("clean", func(t *testing.T) { sweepContract(t, "clean", 0) })
	for _, profile := range []string{"lossy", "hostile", "flaky"} {
		t.Run(profile, func(t *testing.T) { sweepContract(t, profile, 2) })
	}
}

// TestSweepResumeFromAnyCheckpoint captures every checkpoint an
// uninterrupted run emits, then restarts a brand-new scanner and
// transport from each one. Whatever instant the crash hit — mid-census,
// mid-retry-round, or on a round boundary — the resumed run must land
// on the identical result.
func TestSweepResumeFromAnyCheckpoint(t *testing.T) {
	const order = 14
	w, _ := resumeWorld(t, order, "hostile")
	bl := w.ScanBlacklist()

	run := func(prev *SweepCheckpoint, workers int) (*SweepResult, []*SweepCheckpoint, error) {
		tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
		defer tr.Close()
		var cks []*SweepCheckpoint
		rc := &ResumeControl{
			Prev:         prev,
			everyBatches: 2,
			Save: func(ck *SweepCheckpoint) error {
				cks = append(cks, copyCheckpoint(t, ck))
				return nil
			},
		}
		res, err := New(tr, resumeOpts(workers)).SweepResumeContext(context.Background(), order, 7, bl, rc)
		return res, cks, err
	}

	want, cks, err := run(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) < 4 {
		t.Fatalf("only %d checkpoints captured; too few to exercise resume", len(cks))
	}
	sawMidRound := false
	for k, ck := range cks {
		if midRound(ck) {
			sawMidRound = true
		}
		got, _, err := run(ck, 8)
		if err != nil {
			t.Fatalf("resume from checkpoint %d (round %d, done=%v): %v", k, ck.Round, ck.Done, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resume from checkpoint %d (round %d, mid-round=%v, done=%v) diverged: probed %d vs %d, responders %d vs %d",
				k, ck.Round, midRound(ck), ck.Done, got.Probed, want.Probed, got.Total(), want.Total())
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
		everyBatches: 2,
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
		&ResumeControl{Prev: last, everyBatches: 2, Save: func(*SweepCheckpoint) error { return nil }})
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
		everyBatches: 2,
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
			if ck.Round >= 1 && midRound(ck) {
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
		&ResumeControl{Prev: last, everyBatches: 2, Save: func(*SweepCheckpoint) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stop+resume diverged from uninterrupted run: probed %d vs %d, responders %d vs %d",
			got.Probed, want.Probed, got.Total(), want.Total())
	}
}

// TestSweepResumeRejectsMismatch guards against resuming the wrong scan:
// another seed's checkpoint, or a position inside another walk.
func TestSweepResumeRejectsMismatch(t *testing.T) {
	w, tr := resumeWorld(t, 14, "clean")
	defer tr.Close()
	for name, prev := range map[string]*SweepCheckpoint{
		"seed":  {Gen: lfsr.GeneratorState{Order: 14, Seed: 6, Of: 1}},
		"shard": {Gen: lfsr.GeneratorState{Order: 14, Seed: 5, Shard: 1, Of: 2, Emitted: 1}},
	} {
		_, err := New(tr, resumeOpts(1)).SweepResumeContext(context.Background(), 14, 5, w.ScanBlacklist(),
			&ResumeControl{Prev: prev, Save: func(*SweepCheckpoint) error { return nil }})
		if err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}

// meetTransport answers nothing; its first SendBatch caller waits for a
// second, concurrent one, so a sweep driven by a single sender cannot get
// past its first batch without tripping alone.
type meetTransport struct {
	nullTransport
	calls  atomic.Int32
	second chan struct{}
	alone  atomic.Bool
}

func (m *meetTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	switch m.calls.Add(1) {
	case 1:
		select {
		case <-m.second:
		case <-time.After(10 * time.Second):
			m.alone.Store(true)
		}
	case 2:
		close(m.second)
	}
	return len(batch), nil
}

// TestSweepResumeUsesWorkers: a checkpointed sweep takes its parallelism
// from Options.Workers like any other sweep. More than one sender is
// inside the transport at once, and the rendezvous still quiesces them
// for mid-round saves.
func TestSweepResumeUsesWorkers(t *testing.T) {
	tr := &meetTransport{second: make(chan struct{})}
	inRound := 0
	rc := &ResumeControl{Save: func(ck *SweepCheckpoint) error {
		if midRound(ck) {
			inRound++
		}
		return nil
	}}
	res, err := New(tr, Options{Workers: 8, SettleDelay: NoSettle}).SweepResumeContext(context.Background(), 18, 3, nil, rc)
	if err != nil {
		t.Fatal(err)
	}
	if tr.alone.Load() {
		t.Fatal("no second sender joined the first within 10s: the checkpointed sweep ran on one goroutine")
	}
	if res.Probed != 1<<18-1 {
		t.Errorf("probed %d targets, want %d", res.Probed, 1<<18-1)
	}
	if inRound == 0 {
		t.Error("no mid-round checkpoint was saved")
	}
}
