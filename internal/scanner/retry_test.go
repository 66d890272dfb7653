package scanner

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
)

func TestBackoffDelaySchedule(t *testing.T) {
	b := BackoffConfig{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	want := []time.Duration{0, 10, 20, 40, 80, 80, 80}
	for attempt, ms := range want {
		if got := b.delay(attempt); got != ms*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", attempt, got, ms*time.Millisecond)
		}
	}
	if got := (BackoffConfig{}).delay(3); got != 0 {
		t.Errorf("zero-value delay(3) = %v, want 0 (backoff disabled)", got)
	}
	uncapped := BackoffConfig{Base: time.Millisecond}
	if got := uncapped.delay(11); got != 1024*time.Millisecond {
		t.Errorf("uncapped delay(11) = %v, want 1.024s", got)
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	b := BackoffConfig{Base: 100 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5, Seed: 7}
	for attempt := 1; attempt <= 5; attempt++ {
		d1, d2 := b.delay(attempt), b.delay(attempt)
		if d1 != d2 {
			t.Fatalf("delay(%d) drew %v then %v; jitter must be a pure function", attempt, d1, d2)
		}
		if d1 < 100*time.Millisecond || d1 > 150*time.Millisecond {
			t.Errorf("delay(%d) = %v outside [base, base*1.5]", attempt, d1)
		}
	}
	other := b
	other.Seed = 8
	same := 0
	for attempt := 1; attempt <= 5; attempt++ {
		if b.delay(attempt) == other.delay(attempt) {
			same++
		}
	}
	if same == 5 {
		t.Error("jitter ignores the seed: two seeds drew identical 5-round schedules")
	}
}

// echoTransport records every probe and answers the ones its script
// picks, synchronously inside Send as the in-memory transport does. The
// reply echoes ID and question from the probed address to the probe's
// source port — all a sweep, an alive probe or a domain scan needs to
// attribute it.
type echoTransport struct {
	// answer reports whether dst's attempt-th probe (0-based) is answered;
	// nil answers nothing.
	answer func(dst uint32, attempt int) bool
	mu     sync.Mutex
	sends  map[uint32]int // probes per destination so far
	recv   func(src netip.Addr, srcPort, dstPort uint16, payload []byte)
}

func (e *echoTransport) Send(ctx context.Context, dst netip.Addr, dstPort, srcPort uint16, payload []byte) error {
	u := lfsr.AddrToU32(dst)
	e.mu.Lock()
	attempt := e.sends[u]
	e.sends[u]++
	e.mu.Unlock()
	if e.answer == nil || !e.answer(u, attempt) {
		return nil
	}
	q, err := dnswire.Unpack(payload)
	if err != nil {
		return err
	}
	wire, err := dnswire.NewResponse(q, dnswire.RCodeNoError).PackBytes()
	if err != nil {
		return err
	}
	e.recv(dst, dstPort, srcPort, wire)
	return nil
}

func (e *echoTransport) SetReceiver(f func(src netip.Addr, srcPort, dstPort uint16, payload []byte)) {
	e.recv = f
}

func (e *echoTransport) Close() error { return nil }

func (e *echoTransport) total() int {
	n := 0
	for _, k := range e.sends {
		n += k
	}
	return n
}

// roundLoopScan is one kind of scan the round loop serves, cut down to
// what the retry-policy cases vary: it probes items (listed in source
// order) with `retries` retry rounds under opts.
type roundLoopScan struct {
	name  string
	items []uint32
	run   func(ctx context.Context, tr Transport, opts Options, retries int) error
}

// roundLoopScans lists the scans every retry-policy case below runs
// against: two list scans and a sweep, each over seven items.
func roundLoopScans(t *testing.T) []roundLoopScan {
	list := []uint32{0x0A000001, 0x0A000002, 0x0A000003, 0x0A000004, 0x0A000005, 0x0A000006, 0x0A000007}
	const order, seed = 3, 5
	gen, err := lfsr.NewTargetGenerator(order, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	permuted := make([]uint32, 8)
	permuted = permuted[:gen.NextBatch(permuted)]
	if len(permuted) != len(list) {
		t.Fatalf("order-%d sweep has %d targets, want %d", order, len(permuted), len(list))
	}
	return []roundLoopScan{
		{"alive", list, func(ctx context.Context, tr Transport, opts Options, retries int) error {
			opts.Retries = retries
			_, err := New(tr, opts).ProbeAliveContext(ctx, list)
			return err
		}},
		{"domains", list, func(ctx context.Context, tr Transport, opts Options, retries int) error {
			opts.Retries = retries
			_, err := New(tr, opts).ScanDomainsContext(ctx, list, []string{"example.com"})
			return err
		}},
		{"sweep", permuted, func(ctx context.Context, tr Transport, opts Options, retries int) error {
			opts.SweepRetries = retries
			_, err := New(tr, opts).SweepContext(ctx, order, seed, nil)
			return err
		}},
	}
}

func TestRetryRoundsBackoffOnFakeClock(t *testing.T) {
	for _, sc := range roundLoopScans(t) {
		fc := newFakeClock()
		tr := &echoTransport{sends: map[uint32]int{}}
		start := fc.Now()
		err := sc.run(context.Background(), tr, Options{
			Workers:     1,
			SettleDelay: NoSettle,
			Clock:       fc,
			Backoff:     BackoffConfig{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond},
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Rounds 1..3 back off 10+20+40ms; the initial round waits nothing.
		if got := fc.Now().Sub(start); got != 70*time.Millisecond {
			t.Errorf("%s: 3 retry rounds advanced the fake clock by %v, want 70ms", sc.name, got)
		}
		for _, u := range sc.items {
			if got := tr.sends[u]; got != 4 {
				t.Errorf("%s: item %#x sent %d times, want 4 (every round)", sc.name, u, got)
			}
		}
	}
}

func TestRetryBudgetTruncatesInTargetOrder(t *testing.T) {
	for _, sc := range roundLoopScans(t) {
		n := len(sc.items)
		// The truncation is decided under the pull lock, so the worker
		// count must not show in which items are retransmitted.
		for _, workers := range []int{1, 8} {
			tr := &echoTransport{sends: map[uint32]int{}}
			err := sc.run(context.Background(), tr, Options{
				Workers:     workers,
				SettleDelay: NoSettle,
				Clock:       newFakeClock(),
				RetryBudget: n + 1,
			}, 3)
			if err != nil {
				t.Fatal(err)
			}
			// Initial round: n probes (free). Round 1: n retries, budget
			// n+1→1. Round 2: the budget admits only the first item. Round
			// 3: budget spent.
			if got := tr.total(); got != n+n+1 {
				t.Errorf("%s workers=%d: total sends = %d, want %d (initial + budgeted retries)", sc.name, workers, got, n+n+1)
			}
			for i, u := range sc.items {
				want := 2
				if i == 0 {
					want = 3 // truncation keeps the first item in source order
				}
				if got := tr.sends[u]; got != want {
					t.Errorf("%s workers=%d: item %d (%#x) sent %d times, want %d", sc.name, workers, i, u, got, want)
				}
			}
		}
	}
}

func TestStageDeadlineEndsRetriesQuietly(t *testing.T) {
	for _, sc := range roundLoopScans(t) {
		tr := &echoTransport{sends: map[uint32]int{}}
		err := sc.run(context.Background(), tr, Options{
			Workers:       1,
			SettleDelay:   NoSettle,
			Clock:         newFakeClock(),
			Backoff:       BackoffConfig{Base: 10 * time.Millisecond},
			StageDeadline: 15 * time.Millisecond,
		}, 5)
		if err != nil {
			t.Fatal(err)
		}
		// The guard is checked at round start: round 1 (0ms elapsed) and
		// round 2 (10ms) run; round 3 finds 30ms ≥ 15ms and stops. Partial
		// coverage, no error — degradation is quiet.
		if got, want := tr.total(), 3*len(sc.items); got != want {
			t.Errorf("%s: total sends = %d, want %d (initial + 2 rounds before deadline)", sc.name, got, want)
		}
	}
}

// TestRetryRoundsStopsWhenAnswered: once nothing is left unanswered the
// scan is over — no further round, and neither the backoff sleep nor the
// settle wait that round would have started with and ended on.
func TestRetryRoundsStopsWhenAnswered(t *testing.T) {
	const settle, backoff = 50 * time.Millisecond, 10 * time.Millisecond
	for _, sc := range roundLoopScans(t) {
		// The last answer arrives in round 0, or in the first retry round.
		for lastRound := 0; lastRound <= 1; lastRound++ {
			fc := newFakeClock()
			tr := &echoTransport{
				sends:  map[uint32]int{},
				answer: func(_ uint32, attempt int) bool { return attempt == lastRound },
			}
			start := fc.Now()
			err := sc.run(context.Background(), tr, Options{
				Workers:     1,
				SettleDelay: settle,
				Clock:       fc,
				Backoff:     BackoffConfig{Base: backoff, Max: backoff},
			}, 5)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := tr.total(), (lastRound+1)*len(sc.items); got != want {
				t.Errorf("%s: total sends = %d, want %d (everything answered in round %d)", sc.name, got, want, lastRound)
			}
			// One settle per round run, one backoff before each retry round.
			want := time.Duration(lastRound+1)*settle + time.Duration(lastRound)*backoff
			if got := fc.Now().Sub(start); got != want {
				t.Errorf("%s: scan answered in round %d took %v on the fake clock, want %v", sc.name, lastRound, got, want)
			}
		}
	}
}

func TestRetryRoundsContextDeath(t *testing.T) {
	for _, sc := range roundLoopScans(t) {
		tr := &echoTransport{sends: map[uint32]int{}}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := sc.run(ctx, tr, Options{Workers: 1, SettleDelay: NoSettle, Clock: newFakeClock()}, 3)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s on dead ctx = %v, want context.Canceled", sc.name, err)
		}
		if got := tr.total(); got != 0 {
			t.Errorf("%s on dead ctx sent %d probes, want none", sc.name, got)
		}
	}
}
