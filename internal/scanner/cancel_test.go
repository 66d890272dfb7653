package scanner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/wildnet"
)

// cancelAfterTransport wraps a transport and cancels the given context
// at the n-th probe, modeling an operator hitting ^C mid-sweep — mid-batch
// too, so it hands the probes on one at a time.
type cancelAfterTransport struct {
	inner  Transport
	cancel context.CancelFunc
	after  int64
	sent   atomic.Int64
}

func (c *cancelAfterTransport) Send(ctx context.Context, b *wildnet.Batch) (int, error) {
	for i, p := range probesOf(b) {
		if c.sent.Add(1) == c.after {
			c.cancel()
		}
		if err := sendOne(ctx, c.inner, p); err != nil {
			return i, err
		}
	}
	return len(b.Dst), nil
}

func (c *cancelAfterTransport) SetReceiver(f func(src netip4, srcPort, dstPort uint16, payload []byte)) {
	c.inner.SetReceiver(f)
}

func (c *cancelAfterTransport) Close() error { return c.inner.Close() }

// TestSweepCancelMidScan checks the satellite contract: cancelling
// mid-sweep returns ctx.Err() together with a consistent, partially
// filled collector — every response gathered before the abort is
// present, sorted, and counted.
func TestSweepCancelMidScan(t *testing.T) {
	w, mem := testWorld(t, 16)
	defer mem.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAfter = 1000
	tr := &cancelAfterTransport{inner: mem, cancel: cancel, after: cancelAfter}
	s := New(tr, Options{Workers: 4, SettleDelay: NoSettle})

	res, err := s.SweepContext(ctx, 16, 31, w.ScanBlacklist())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned err=%v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled sweep returned nil result; want the partial census")
	}
	// Workers stop at their next batch boundary: at most one in-flight
	// batch per worker completes beyond the cancellation point.
	maxProbes := uint64(cancelAfter + 4*streamBatch)
	if res.Probed == 0 || res.Probed > maxProbes {
		t.Errorf("cancelled sweep probed %d targets, want (0, %d]", res.Probed, maxProbes)
	}
	// The partial collector must be internally consistent: sorted,
	// duplicate-free, with rcode counts matching the responder list.
	byRCode := map[dnswire.RCode]int{}
	for i, r := range res.Responders {
		if i > 0 && res.Responders[i-1].Addr >= r.Addr {
			t.Fatalf("responders unsorted at %d: %#x >= %#x", i, res.Responders[i-1].Addr, r.Addr)
		}
		byRCode[r.RCode]++
	}
	for rc, n := range byRCode {
		if res.ByRCode[rc] != n {
			t.Errorf("ByRCode[%v] = %d, want %d", rc, res.ByRCode[rc], n)
		}
	}
	if len(res.ByRCode) != len(byRCode) {
		t.Errorf("ByRCode has %d codes, responders show %d", len(res.ByRCode), len(byRCode))
	}
}

// TestListScanCancelMidScan is TestSweepCancelMidScan for a list scan,
// which cancels on the same engine: workers stop at their next pull, so
// at most one pull per worker goes out beyond the cancellation point, and
// the scan returns ctx.Err() with the allocated result.
func TestListScanCancelMidScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAfter, workers = 1000, 4
	tr := &cancelAfterTransport{inner: &nullTransport{}, cancel: cancel, after: cancelAfter}
	resolvers := make([]uint32, 4096)
	for i := range resolvers {
		resolvers[i] = 0x0E000000 + uint32(i)
	}
	s := New(tr, Options{Workers: workers, SettleDelay: NoSettle})

	res, err := s.ScanDomainsContext(ctx, resolvers, []string{"chase.com", "okcupid.com"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled domain scan returned err=%v, want context.Canceled", err)
	}
	if res == nil || len(res.Answers) != 2 {
		t.Fatal("cancelled domain scan must return the allocated result rows")
	}
	maxProbes := int64(cancelAfter + workers*listPull(len(resolvers)))
	if got := tr.sent.Load(); got < cancelAfter || got > maxProbes {
		t.Errorf("cancelled domain scan sent %d probes, want [%d, %d]", got, cancelAfter, maxProbes)
	}
}

// TestSweepCancelBounded is the acceptance assertion: a cancelled
// order-20 sweep returns within one send batch per worker plus one
// settle tick, measured on the fake clock.
func TestSweepCancelBounded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAfter = 4 * streamBatch
	tr := &cancelAfterTransport{inner: &nullTransport{}, cancel: cancel, after: cancelAfter}
	fc := newFakeClock()
	const settle = 50 * time.Millisecond
	s := New(tr, Options{Workers: 4, SettleDelay: settle, Clock: fc})

	start := fc.Now()
	res, err := s.SweepContext(ctx, 20, 31, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned err=%v, want context.Canceled", err)
	}
	// One in-flight batch of streamBatch targets per worker may finish
	// after the cancel lands; nothing more of the 2^20 space is probed.
	maxProbes := uint64(cancelAfter + 4*streamBatch)
	if res.Probed > maxProbes {
		t.Errorf("cancelled order-20 sweep probed %d targets, want <= %d", res.Probed, maxProbes)
	}
	// The settle wait must not outlive the cancellation: at most one
	// settle tick of virtual time elapses after the abort.
	if got := fc.Now().Sub(start); got > settle {
		t.Errorf("cancelled sweep consumed %v of virtual time, want <= one settle tick (%v)", got, settle)
	}
}

// blockingClock models a settle wait long enough that only context
// cancellation can end it: Sleep blocks until released, and the
// ContextSleeper implementation waits for the context. A test failing
// this contract would hang on Sleep rather than return.
type blockingClock struct {
	slept chan struct{}
}

func (b *blockingClock) Now() time.Time { return time.Unix(0, 0) }

func (b *blockingClock) Sleep(d time.Duration) { <-b.slept }

func (b *blockingClock) SleepContext(ctx context.Context, d time.Duration) error {
	select {
	case <-b.slept:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestSettleDeadlineReturnsPromptly checks that a deadline landing
// during the settle wait ends it promptly instead of sleeping out the
// full SettleDelay.
func TestSettleDeadlineReturnsPromptly(t *testing.T) {
	bc := &blockingClock{slept: make(chan struct{})}
	s := New(&nullTransport{}, Options{SettleDelay: time.Hour, Clock: bc})
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() { done <- s.settle(ctx) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("settle returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("settle did not return after cancellation; it is sleeping out the full SettleDelay")
	}

	// An already-expired deadline skips the wait entirely.
	dead, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	if err := s.settle(dead); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("settle under expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestScanDomainsCancelBetweenRounds checks the engine's first
// checkpoint: a context dead before round 0 stops the scan before any
// probe, with the allocated rows intact and empty.
func TestScanDomainsCancelBetweenRounds(t *testing.T) {
	w, mem := testWorld(t, 16)
	defer mem.Close()
	s := New(mem, Options{Workers: 4, SettleDelay: NoSettle})
	sweep, err := s.SweepContext(context.Background(), 16, 31, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	if len(resolvers) == 0 {
		t.Fatal("no resolvers to scan")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before the first checkpoint
	res, err := s.ScanDomainsContext(ctx, resolvers, []string{"chase.com", "okcupid.com"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled domain scan returned err=%v, want context.Canceled", err)
	}
	if res == nil || len(res.Answers) != 2 {
		t.Fatal("cancelled domain scan must return the allocated (empty) result rows")
	}
	for ni := range res.Answers {
		for ri := range res.Answers[ni] {
			if res.Answers[ni][ri].Answered() {
				t.Fatalf("row %d answer %d recorded despite pre-cancelled context", ni, ri)
			}
		}
	}
}
