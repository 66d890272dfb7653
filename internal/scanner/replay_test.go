package scanner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/prand"
	"goingwild/internal/wildnet"
)

// roundRecorder is an echoTransport that also keeps each Send's
// destination list, tagged with its round. A sweep's rounds never
// overlap and each sends under its own census template, so a batch's
// round is how many templates came before its own.
type roundRecorder struct {
	echoTransport
	rmu    sync.Mutex
	last   *dnswire.CensusQuery
	rounds [][][]uint32 // rounds[r] = round r's batches, in arrival order
}

func (r *roundRecorder) Send(ctx context.Context, b *wildnet.Batch) (int, error) {
	r.rmu.Lock()
	if b.Template != r.last {
		r.last = b.Template
		r.rounds = append(r.rounds, nil)
	}
	last := len(r.rounds) - 1
	r.rounds[last] = append(r.rounds[last], slices.Clone(b.Dst))
	r.rmu.Unlock()
	return r.echoTransport.Send(ctx, b)
}

// sortBatches orders a round's batches so that two rounds compare as
// multisets of batches.
func sortBatches(batches [][]uint32) [][]uint32 {
	slices.SortFunc(batches, slices.Compare[[]uint32])
	return batches
}

// TestSweepReplayMatchesGenerator: a sweep with retry rounds reads its
// retry rounds' targets back from round 0's pulls, and every round sends
// exactly the batches that re-walking the generator would cut. The
// oracle steps a fresh lfsr.TargetGenerator in streamBatch pulls and
// keeps, per round, the targets not answered before the round started;
// the transport answers a seeded third of the probes of each attempt, so
// each round's kept set differs. make race runs it three times under the
// detector.
func TestSweepReplayMatchesGenerator(t *testing.T) {
	const order, seed, retries = 14, 541, 2
	bl := lfsr.NewBlacklist()
	bl.AddRange(0x0100, 0x01ff) // a pull straddles both ranges' edges
	bl.AddRange(0x2345, 0x2fff)
	answer := func(dst uint32, attempt int) bool {
		return prand.UnitOf(seed, uint64(dst), uint64(attempt)) < 1.0/3
	}
	answeredBefore := func(u uint32, round int) bool {
		for a := range round {
			if answer(u, a) {
				return true
			}
		}
		return false
	}

	var want [][][]uint32
	gen, err := lfsr.NewTargetGenerator(order, seed, bl)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round <= retries; round++ {
		gen.Reset()
		var batches [][]uint32
		pull := make([]uint32, streamBatch)
		for n := gen.NextBatch(pull); n > 0; n = gen.NextBatch(pull) {
			var kept []uint32
			for _, u := range pull[:n] {
				if !answeredBefore(u, round) {
					kept = append(kept, u)
				}
			}
			if len(kept) > 0 {
				batches = append(batches, kept)
			}
		}
		want = append(want, sortBatches(batches))
	}
	probed := uint64(0)
	for _, b := range want[0] {
		probed += uint64(len(b))
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tr := &roundRecorder{echoTransport: echoTransport{sends: map[uint32]int{}, answer: answer}}
			s := New(tr, Options{Workers: workers, SettleDelay: NoSettle, SweepRetries: retries})
			res, err := s.SweepContext(context.Background(), order, seed, bl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Probed != probed {
				t.Errorf("probed %d targets, want %d", res.Probed, probed)
			}
			if len(tr.rounds) != len(want) {
				t.Fatalf("sweep sent %d rounds, want %d", len(tr.rounds), len(want))
			}
			for round, got := range tr.rounds {
				if got := sortBatches(got); !reflect.DeepEqual(got, want[round]) {
					t.Errorf("round %d: %d batches differ from the generator's %d", round, len(got), len(want[round]))
				}
			}
		})
	}
}

// TestSweepReplayOnlyWithRetries: a sweep with retry rounds replays from
// a recorded list; one without them pulls from the bare generator and
// records nothing.
func TestSweepReplayOnlyWithRetries(t *testing.T) {
	for _, retries := range []int{0, 2} {
		s := New(&echoTransport{}, Options{SweepRetries: retries})
		_, run, err := s.newSweep(14, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch src := run.src.(type) {
		case *lfsr.TargetGenerator:
			if retries > 0 {
				t.Errorf("SweepRetries %d: the source is the bare generator, want a replay source", retries)
			}
		case *replaySource:
			if retries == 0 {
				t.Errorf("SweepRetries 0: the source records into a %d-target list", cap(src.list))
			}
			src.release()
		default:
			t.Errorf("SweepRetries %d: source %T", retries, src)
		}
	}
}

// TestSweepReplayListReused: a warm sweep with retry rounds records into
// the pooled list of the one before it. Four order-14 hostile sweeps
// allocate well under what one fresh list (4 B × 2^14) costs; like
// alloctest.Count, the smallest of three windows is kept, at GOMAXPROCS
// 1, so a stray goroutine cannot fail it.
func TestSweepReplayListReused(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	const order, sweeps = 14, 4
	w, tr := chaosWorld(t, order, "hostile")
	defer tr.Close()
	bl := w.ScanBlacklist()
	s := New(tr, Options{SettleDelay: NoSettle, SweepRetries: 2})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sweep := func(seed uint32) {
		tr.SetTime(wildnet.At(0))
		if _, err := s.SweepContext(context.Background(), order, seed, bl); err != nil {
			t.Fatal(err)
		}
	}
	sweep(0)
	var fewest uint64
	for m := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range sweeps {
			sweep(uint32(1 + m*sweeps + i))
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; m == 0 || n < fewest {
			fewest = n
		}
	}
	const list = 4 << order
	if per := fewest / sweeps; per > list/2 {
		t.Errorf("a warm hostile order-%d sweep allocates %d B, want under %d (half a fresh %d B replay list)", order, per, list/2, list)
	}
}

// TestSweepKilledInRound0LeavesNoList: a sweep killed inside round 0
// never reaches a retry round, and the partial list it recorded goes
// back to the pool. The next sweep on the same Scanner must send and
// find exactly what a fresh scanner's does.
func TestSweepKilledInRound0LeavesNoList(t *testing.T) {
	const order, killAt = 14, 5000
	w, mem := chaosWorld(t, order, "hostile")
	defer mem.Close()
	bl := w.ScanBlacklist()
	opts := Options{Workers: 4, SettleDelay: NoSettle, SweepRetries: 2}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelAfterTransport{inner: mem, cancel: cancel, after: killAt}
	s := New(tr, opts)
	res, err := s.SweepContext(ctx, order, 17, bl)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep killed at probe %d returned %v, want context.Canceled", killAt, err)
	}
	if res.Probed >= 1<<order/2 {
		t.Fatalf("the killed sweep probed %d targets: killed after round 0", res.Probed)
	}
	killed := tr.sent.Load()
	// A new instant restarts the transport's retransmission counts and
	// silent memo, as every census week does.
	mem.SetTime(wildnet.At(0))
	got, err := s.SweepContext(context.Background(), order, 18, bl)
	if err != nil {
		t.Fatal(err)
	}
	sent := tr.sent.Load() - killed

	freshMem := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer freshMem.Close()
	fresh := &cancelAfterTransport{inner: freshMem}
	want, err := New(fresh, opts).SweepContext(context.Background(), order, 18, bl)
	if err != nil {
		t.Fatal(err)
	}
	if sent != fresh.sent.Load() {
		t.Errorf("the sweep after a kill sent %d probes, a fresh scanner's %d", sent, fresh.sent.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the sweep after a kill found %d responders of %d probed, a fresh scanner's %d of %d",
			got.Total(), got.Probed, want.Total(), want.Probed)
	}
}
