package scanner

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/wildnet"
)

// TestStatsLazyStartExcludesSetup pins the lazy elapsed-time base: the
// clock starts at the first Send, not when the transport is wrapped.
// Before this fix, world construction and target generation were
// charged to the scan window, understating Rate() by whatever the
// setup cost happened to be.
func TestStatsLazyStartExcludesSetup(t *testing.T) {
	fc := newFakeClock()
	inner := &nullTransport{}
	tr, stats := WithStatsClock(inner, fc)
	tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})

	// A long idle setup window must not accrue elapsed time.
	fc.Advance(10 * time.Second)
	if snap := stats.Snapshot(); snap.Elapsed != 0 || snap.Rate() != 0 {
		t.Fatalf("pre-traffic snapshot: Elapsed=%v Rate=%v, want 0 and 0", snap.Elapsed, snap.Rate())
	}

	payload := make([]byte, 8)
	dst := netip.MustParseAddr("192.0.2.1")
	for i := 0; i < 50; i++ {
		if err := tr.Send(context.Background(), dst, 53, 40000, payload); err != nil {
			t.Fatal(err)
		}
	}
	fc.Advance(5 * time.Second)

	snap := stats.Snapshot()
	if snap.Elapsed != 5*time.Second {
		t.Errorf("Elapsed = %v, want exactly 5s (setup window must be excluded)", snap.Elapsed)
	}
	if got := snap.Rate(); got != 10 {
		t.Errorf("Rate() = %v pps, want exactly 10", got)
	}
}

// TestStatsLazyStartConcurrent races many senders over one wrapper: the
// base must be stamped exactly once (the earliest Send wins), which the
// race detector checks for free when this package runs under -race.
func TestStatsLazyStartConcurrent(t *testing.T) {
	fc := newFakeClock()
	start := fc.Now()
	tr, stats := WithStatsClock(&nullTransport{}, fc)
	tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})

	payload := make([]byte, 4)
	dst := netip.MustParseAddr("192.0.2.1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = tr.Send(context.Background(), dst, 53, 40000, payload)
			}
		}()
	}
	wg.Wait()
	fc.Advance(time.Second)

	snap := stats.Snapshot()
	if snap.Sent != 800 {
		t.Errorf("Sent = %d, want 800", snap.Sent)
	}
	// All sends happened at the same fake instant, so whichever
	// goroutine stamped the base, Elapsed is exactly the later advance.
	if snap.Elapsed != fc.Now().Sub(start) {
		t.Errorf("Elapsed = %v, want %v", snap.Elapsed, fc.Now().Sub(start))
	}
}

// batchCountingTransport counts the SendBatch calls that reach the
// wrapped in-memory transport.
type batchCountingTransport struct {
	*wildnet.MemTransport
	batches atomic.Int64
}

func (b *batchCountingTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	b.batches.Add(1)
	return b.MemTransport.SendBatch(ctx, batch)
}

// TestStatsKeepsBatchDispatch: counting must not cost the bulk send path.
// A sweep through a stats-wrapped transport reaches the inner SendBatch,
// and the wrapper's sent count is the sweep's probe count.
func TestStatsKeepsBatchDispatch(t *testing.T) {
	w, mem := testWorld(t, 14)
	defer mem.Close()
	inner := &batchCountingTransport{MemTransport: mem}
	tr, stats := WithStats(inner)
	res, err := New(tr, Options{Workers: 4, SettleDelay: NoSettle}).SweepContext(context.Background(), 14, 5, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(res.Probed+streamBatch-1) / streamBatch; inner.batches.Load() != want {
		t.Errorf("inner SendBatch saw %d batches, want %d: the wrapper fell back to per-probe Send", inner.batches.Load(), want)
	}
	snap := stats.Snapshot()
	if snap.Sent != res.Probed {
		t.Errorf("stats counted %d probes sent, sweep probed %d", snap.Sent, res.Probed)
	}
	if snap.BytesOut == 0 || snap.Received == 0 {
		t.Errorf("byte or receive counters empty: %+v", snap)
	}
}

// TestStatsForwardsAttempts: a checkpoint taken through a stats-wrapped
// hostile transport carries the fault layer's retransmission counters,
// and resuming through a wrapper restores them into the inner transport.
func TestStatsForwardsAttempts(t *testing.T) {
	w, mem := resumeWorld(t, 14, "hostile")
	defer mem.Close()
	bl := w.ScanBlacklist()
	tr, _ := WithStats(mem)
	s := New(tr, resumeOpts(2))
	// The same payload toward the same resolver twice at one simulated
	// instant: the only kind of entry a checkpoint keeps (N >= 2).
	census, err := s.SweepContext(context.Background(), 14, 5, bl)
	if err != nil {
		t.Fatal(err)
	}
	resolver := census.NOERROR()[0]
	for i := 0; i < 2; i++ {
		if _, err := s.ProbeContext(context.Background(), resolver, "example.com", dnswire.TypeA, dnswire.ClassIN); err != nil {
			t.Fatal(err)
		}
	}
	var last *SweepCheckpoint
	rc := &ResumeControl{Save: func(ck *SweepCheckpoint) error { last = copyCheckpoint(t, ck); return nil }}
	if _, err := s.SweepResumeContext(context.Background(), 14, 5, bl, rc); err != nil {
		t.Fatal(err)
	}
	if len(last.Attempts) == 0 {
		t.Fatal("checkpoint through the stats wrapper carries no attempt counters")
	}

	mem2 := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer mem2.Close()
	tr2, _ := WithStats(mem2)
	if _, err := New(tr2, resumeOpts(2)).SweepResumeContext(context.Background(), 14, 5, bl,
		&ResumeControl{Prev: last, Save: func(*SweepCheckpoint) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	restored := map[wildnet.AttemptRecord]bool{}
	for _, r := range mem2.AttemptsState() {
		restored[r] = true
	}
	for _, r := range last.Attempts {
		if !restored[r] {
			t.Errorf("attempt record %+v not restored into the wrapped transport", r)
		}
	}
}
