package wildnet

import (
	"context"
	"fmt"
	"math/bits"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"goingwild/internal/alloctest"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/metrics"
)

// memoTemplates returns the census templates of a sweep and its first
// retry round.
func memoTemplates(t testing.TB) []*dnswire.CensusQuery {
	t.Helper()
	baseWire, err := dnswire.EncodeNameWire(domains.ScanBase)
	if err != nil {
		t.Fatal(err)
	}
	return []*dnswire.CensusQuery{dnswire.NewCensusQuery(baseWire, 0), dnswire.NewCensusQuery(baseWire, 1)}
}

// memoSweep sends a census probe and its retry to every address of w's
// space through tr, each round split over senders goroutines that send
// batches of 256 interleaved with one another, and returns the
// deliveries, sorted.
func memoSweep(t *testing.T, tr *MemTransport, w *World, senders int) []string {
	t.Helper()
	var (
		mu  sync.Mutex
		got []string
	)
	tr.SetReceiver(func(src netip.Addr, sp, dp uint16, payload []byte) {
		d := fmt.Sprintf("%v %d %d %x", src, sp, dp, payload)
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	})
	defer tr.SetReceiver(nil)
	space := uint32(w.SpaceSize())
	const batchLen = 256
	for _, tmpl := range memoTemplates(t) {
		var wg sync.WaitGroup
		errs := make(chan error, senders)
		for s := range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch := make([]Probe, 0, batchLen)
				for lo := uint32(s * batchLen); lo < space; lo += uint32(senders * batchLen) {
					batch = batch[:0]
					for u := lo; u < min(lo+batchLen, space); u++ {
						batch = append(batch, Probe{Dst: w.Addr(u), DstPort: 53, SrcPort: 33000, Template: tmpl})
					}
					if n, err := tr.SendBatch(context.Background(), batch); err != nil || n != len(batch) {
						errs <- fmt.Errorf("SendBatch = %d, %v", n, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	slices.Sort(got)
	return got
}

// memoBits returns the addresses whose silent-memo bit is set.
func memoBits(tr *MemTransport) []uint32 {
	var out []uint32
	for i := range tr.silent.bits {
		for word := tr.silent.bits[i].Load(); word != 0; word &= word - 1 {
			out = append(out, uint32(i*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// TestSilentMemoClearsWithTheClock: a faulted transport that swept week A
// and then week B returns, for week B, exactly what a fresh transport
// returns — the same deliveries and the same deterministic series,
// wildnet.send.rejected and wildnet.fault.* among them — so no verdict of
// week A outlives SetTime. The weeks are far enough apart that addresses
// silent at A host resolvers at B.
func TestSilentMemoClearsWithTheClock(t *testing.T) {
	const weekA, weekB = 0, 30
	world := func() (*World, *metrics.Registry) {
		cfg := DefaultConfig(14)
		cfg.Faults = MustChaosProfile("hostile")
		cfg.Metrics = metrics.New()
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w, cfg.Metrics
	}

	w, reg := world()
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	tr.SetTime(At(weekA))
	if len(memoSweep(t, tr, w, 4)) == 0 || len(memoBits(tr)) == 0 {
		t.Fatal("the week-A sweep drew no responses or set no memo bit")
	}
	a, b := At(weekA), At(weekB)
	bcA, bcB := w.blockCache(weekA), w.blockCache(weekB)
	revived := 0
	for _, u := range memoBits(tr) {
		if w.sweepClassify(u, VantagePrimary, b, bcB) == classDeliver {
			revived++
		}
		if w.sweepClassify(u, VantagePrimary, a, bcA) != classReject {
			t.Fatalf("address %d memoised silent at week %d, classified otherwise", u, weekA)
		}
	}
	if revived == 0 {
		t.Fatalf("no address silent at week %d is deliverable at week %d: the test shows nothing", weekA, weekB)
	}
	tr.SetTime(b)
	if set := memoBits(tr); len(set) != 0 {
		t.Fatalf("SetTime left %d memo bits set", len(set))
	}
	before := reg.Snapshot().StripTiming()
	gotB := memoSweep(t, tr, w, 4)
	after := reg.Snapshot().StripTiming()

	fresh, freshReg := world()
	ftr := NewMemTransport(fresh, VantagePrimary)
	defer ftr.Close()
	ftr.SetTime(b)
	wantB := memoSweep(t, ftr, fresh, 4)
	want := freshReg.Snapshot().StripTiming()

	if !reflect.DeepEqual(gotB, wantB) {
		t.Errorf("week %d after week %d: %d deliveries; a fresh transport: %d", weekB, weekA, len(gotB), len(wantB))
	}
	for _, c := range want.Counters {
		if got := after.Counter(c.Name) - before.Counter(c.Name); got != c.Value {
			t.Errorf("%s: %d after week %d, %d on a fresh transport", c.Name, got, weekA, c.Value)
		}
	}
	if want.Counter("wildnet.send.rejected") == 0 {
		t.Error("the week-B sweep rejected nothing")
	}
}

// TestSilentMemoHoldsOnlyRejects: after an order-14 hostile sweep with
// four senders, the memo's bits are exactly the addresses sweepClassify
// rejects at the transport's clock — no deliverable or Chinese-space
// address among them, and no rejected one missing, whatever order the
// senders set bits of a shared word in (run it under -race).
func TestSilentMemoHoldsOnlyRejects(t *testing.T) {
	w := faultyWorld(t, 14, "hostile")
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	tr.SetTime(At(5))
	memoSweep(t, tr, w, 4)
	now := tr.Time()
	bc := w.blockCache(now.Week)
	var want []uint32
	for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
		if w.sweepClassify(u, VantagePrimary, now, bc) == classReject {
			want = append(want, u)
		}
	}
	got := memoBits(tr)
	if !slices.Equal(got, want) {
		t.Errorf("%d memo bits, %d addresses rejected at week %d", len(got), len(want), now.Week)
	}
	if len(want) == 0 || len(want) == int(w.SpaceSize()) {
		t.Errorf("%d of %d addresses rejected: the test shows nothing", len(want), w.SpaceSize())
	}
}

// TestMemoRejectAllocs: on a faulted world, a batch of silent addresses
// is rejected at zero allocations both when its verdicts are derived and
// memoised (the memo cleared by SetTime before every batch) and when they
// are read back from the memo. A fault-free transport keeps no memo.
func TestMemoRejectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	if tr := NewMemTransport(testWorld(t, 14), VantagePrimary); tr.silent != nil {
		t.Fatal("a fault-free transport allocated a silent memo")
	}
	w := faultyWorld(t, 16, "hostile")
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})
	now := tr.Time()
	bc := w.blockCache(now.Week)
	tmpl := memoTemplates(t)[0]
	batch := make([]Probe, 0, 64)
	for u := uint32(0); len(batch) < cap(batch); u++ {
		if w.sweepClassify(u, VantagePrimary, now, bc) == classReject {
			batch = append(batch, Probe{Dst: w.Addr(u), DstPort: 53, SrcPort: 33000, Template: tmpl})
		}
	}
	ctx := context.Background()
	send := func() {
		if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
	}
	if n := alloctest.Count(100, func() { tr.SetTime(now); send() }); n != 0 {
		t.Errorf("classified silent batch allocates %d times over 100 batches, want 0", n)
	}
	if n := alloctest.Count(100, send); n != 0 {
		t.Errorf("memoised silent batch allocates %d times over 100 batches, want 0", n)
	}
	if len(memoBits(tr)) != len(batch) {
		t.Errorf("%d memo bits after sending %d silent addresses", len(memoBits(tr)), len(batch))
	}
}
