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
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

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

func (e *echoTransport) Send(ctx context.Context, b *wildnet.Batch) (int, error) {
	for i, p := range probesOf(b) {
		u := lfsr.AddrToU32(p.Dst)
		e.mu.Lock()
		attempt := e.sends[u]
		e.sends[u]++
		e.mu.Unlock()
		if e.answer == nil || !e.answer(u, attempt) {
			continue
		}
		q, err := dnswire.Unpack(payloadOf(p))
		if err != nil {
			return i, err
		}
		wire, err := dnswire.NewResponse(q, dnswire.RCodeNoError).PackBytes()
		if err != nil {
			return i, err
		}
		e.recv(p.Dst, p.DstPort, p.SrcPort, wire)
	}
	return len(b.Dst), nil
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
// what the round-loop cases vary: it probes items (listed in source order)
// under opts. The list scans retry listRetries rounds; the sweep takes
// sweepRetries.
type roundLoopScan struct {
	name    string
	items   []uint32
	retries int
	run     func(ctx context.Context, tr Transport, opts Options) error
}

// sweepRetries is the sweep's retry allowance in the cases below: more
// rounds than any of them needs, so a sweep that stops early stopped
// because nothing was left silent.
const sweepRetries = 5

// roundLoopScans lists the scans every round-loop case below runs
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
		{"alive", list, listRetries, func(ctx context.Context, tr Transport, opts Options) error {
			_, err := New(tr, opts).ProbeAliveContext(ctx, list)
			return err
		}},
		{"domains", list, listRetries, func(ctx context.Context, tr Transport, opts Options) error {
			_, err := New(tr, opts).ScanDomainsContext(ctx, list, []string{"example.com"})
			return err
		}},
		{"sweep", permuted, sweepRetries, func(ctx context.Context, tr Transport, opts Options) error {
			opts.SweepRetries = sweepRetries
			_, err := New(tr, opts).SweepContext(ctx, order, seed, nil)
			return err
		}},
	}
}

// TestRetryRoundsStopsWhenAnswered: once nothing is left unanswered the
// scan is over — no further round, and not the settle wait it would have
// ended on. A round costs its settle wait and nothing else, so the fake
// clock reads exactly rounds × settle.
func TestRetryRoundsStopsWhenAnswered(t *testing.T) {
	const settle = 50 * time.Millisecond
	for _, sc := range roundLoopScans(t) {
		// The last answer arrives in round 0, or in the first retry round.
		for lastRound := 0; lastRound <= 1; lastRound++ {
			fc := newFakeClock()
			reg := metrics.New()
			tr := &echoTransport{
				sends:  map[uint32]int{},
				answer: func(_ uint32, attempt int) bool { return attempt == lastRound },
			}
			start := fc.Now()
			err := sc.run(context.Background(), tr, Options{Workers: 1, SettleDelay: settle, Clock: fc, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			rounds := lastRound + 1
			if got, want := tr.total(), rounds*len(sc.items); got != want {
				t.Errorf("%s: total sends = %d, want %d (everything answered in round %d)", sc.name, got, want, lastRound)
			}
			if got, want := fc.Now().Sub(start), time.Duration(rounds)*settle; got != want {
				t.Errorf("%s: scan answered in round %d took %v on the fake clock, want %v", sc.name, lastRound, got, want)
			}
			snap := reg.Snapshot()
			if got := snap.Counter("scanner.settle.waits"); got != uint64(rounds) {
				t.Errorf("%s: scanner.settle.waits = %d, want %d (one per round run)", sc.name, got, rounds)
			}
			if got := snap.Counter("scanner.retry.rounds"); got != uint64(lastRound) {
				t.Errorf("%s: scanner.retry.rounds = %d, want %d", sc.name, got, lastRound)
			}
		}
	}
}

// TestRetryRoundsRunOut: with nothing ever answered every retry round
// runs, each over every item, and the scan ends quietly after the last.
func TestRetryRoundsRunOut(t *testing.T) {
	const settle = 50 * time.Millisecond
	for _, sc := range roundLoopScans(t) {
		fc := newFakeClock()
		tr := &echoTransport{sends: map[uint32]int{}}
		start := fc.Now()
		if err := sc.run(context.Background(), tr, Options{Workers: 1, SettleDelay: settle, Clock: fc}); err != nil {
			t.Fatal(err)
		}
		for _, u := range sc.items {
			if got := tr.sends[u]; got != sc.retries+1 {
				t.Errorf("%s: item %#x sent %d times, want %d (every round)", sc.name, u, got, sc.retries+1)
			}
		}
		if got, want := fc.Now().Sub(start), time.Duration(sc.retries+1)*settle; got != want {
			t.Errorf("%s: %d silent rounds took %v on the fake clock, want %v", sc.name, sc.retries+1, got, want)
		}
	}
}

func TestRetryRoundsContextDeath(t *testing.T) {
	for _, sc := range roundLoopScans(t) {
		tr := &echoTransport{sends: map[uint32]int{}}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := sc.run(ctx, tr, Options{Workers: 1, SettleDelay: NoSettle, Clock: newFakeClock()})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s on dead ctx = %v, want context.Canceled", sc.name, err)
		}
		if got := tr.total(); got != 0 {
			t.Errorf("%s on dead ctx sent %d probes, want none", sc.name, got)
		}
	}
}
