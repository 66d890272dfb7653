package scanner

import (
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// fakeClock is a manually-advanced Clock; Sleep jumps time forward
// instead of blocking, so pacing logic runs instantly and exactly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) Advance(d time.Duration) { c.Sleep(d) }

// nullTransport swallows sends and hands the receiver back to the test.
type nullTransport struct {
	recv func(src netip.Addr, srcPort, dstPort uint16, payload []byte)
}

func (n *nullTransport) Send(ctx context.Context, b *wildnet.Batch) (int, error) {
	return len(b.Dst), nil
}

func (n *nullTransport) SetReceiver(f func(src netip.Addr, srcPort, dstPort uint16, payload []byte)) {
	n.recv = f
}

func (n *nullTransport) Close() error { return nil }

// TestStatsWithFakeClock: the registry is the scan's traffic instrument
// and the injected clock its only time. Twenty alive probes, a quarter of
// them answered: the counters hold the first pass, the one retry round
// over the silent fifteen and the five answers, and the scan cost exactly
// its two settle waits.
func TestStatsWithFakeClock(t *testing.T) {
	fc := newFakeClock()
	reg := metrics.New()
	tr := &echoTransport{
		sends:  map[uint32]int{},
		answer: func(dst uint32, _ int) bool { return dst%4 == 0 },
	}
	addrs := make([]uint32, 20)
	for i := range addrs {
		addrs[i] = 0x0A000000 + uint32(i)
	}
	s := New(tr, Options{Workers: 4, SettleDelay: time.Second, Clock: fc, Metrics: reg})
	start := fc.Now()
	alive, err := s.ProbeAliveContext(context.Background(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(alive) != 5 {
		t.Errorf("%d addresses alive, want 5", len(alive))
	}
	snap := reg.Snapshot()
	if sent, recv := snap.Traffic(); sent != 35 || recv != 5 {
		t.Errorf("sent=%d recv=%d, want 35/5", sent, recv)
	}
	if got := snap.Counter("scanner.retry.spend"); got != 15 {
		t.Errorf("scanner.retry.spend = %d, want 15", got)
	}
	if got, want := snap.TrafficLine(), "sent=35 recv=5 (14.3%)"; got != want {
		t.Errorf("TrafficLine() = %q, want %q", got, want)
	}
	if got := fc.Now().Sub(start); got != 2*time.Second {
		t.Errorf("scan took %v on the fake clock, want exactly 2s", got)
	}
}

func TestRateLimiterWithFakeClock(t *testing.T) {
	fc := newFakeClock()
	start := fc.Now()
	rl := newRateLimiter(1000, fc) // 1ms interval
	for i := 0; i < 50; i++ {
		rl.wait(context.Background())
	}
	// 50 tokens at 1k pps ≈ 50ms of virtual time; the 2ms burst
	// allowance trims a few ms off the tail.
	elapsed := fc.Now().Sub(start)
	if elapsed < 40*time.Millisecond || elapsed > 50*time.Millisecond {
		t.Errorf("50 tokens advanced the fake clock by %v, want ≈48ms", elapsed)
	}

	unlimited := newRateLimiter(0, fc)
	before := fc.Now()
	for i := 0; i < 1000; i++ {
		unlimited.wait(context.Background())
	}
	if fc.Now() != before {
		t.Error("unlimited rate limiter consumed virtual time")
	}
}

// TestRateLimitedSweepWaitsPerTarget: a rate-limited sweep takes one
// token per probe it sends, in round 0 and in its retry round, and none
// for a target the retry round skips: an order-10 sweep at 1000 pps on a
// fake clock, a third of whose targets answer the first probe, spends
// one virtual millisecond per probe sent, less the limiter's 2ms burst.
func TestRateLimitedSweepWaitsPerTarget(t *testing.T) {
	fc := newFakeClock()
	reg := metrics.New()
	tr := &echoTransport{
		sends:  map[uint32]int{},
		answer: func(dst uint32, attempt int) bool { return attempt == 0 && dst%3 == 0 },
	}
	// One sender: the fake clock sums every sleep, so two senders
	// sleeping at once would count their overlap twice.
	s := New(tr, Options{Workers: 1, RatePPS: 1000, SweepRetries: 1, SettleDelay: NoSettle, Clock: fc, Metrics: reg})
	start := fc.Now()
	res, err := s.SweepContext(context.Background(), 10, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := reg.Snapshot().Counter("scanner.sweep.sent")
	if answered := uint64(res.Total()); sent != 2*res.Probed-answered || answered == 0 || int(sent) != tr.total() {
		t.Fatalf("%d probes sent to %d targets, %d answered, %d at the transport", sent, res.Probed, answered, tr.total())
	}
	elapsed := fc.Now().Sub(start)
	if want := time.Duration(sent) * time.Millisecond; elapsed > want || elapsed < want-3*time.Millisecond {
		t.Errorf("%d probes advanced the fake clock by %v, want %v less the 2ms burst", sent, elapsed, want)
	}
}

func TestSettleUsesInjectedClock(t *testing.T) {
	fc := newFakeClock()
	s := New(&nullTransport{}, Options{SettleDelay: 5 * time.Millisecond, Clock: fc})
	before := fc.Now()
	s.settle(context.Background())
	if got := fc.Now().Sub(before); got != 5*time.Millisecond {
		t.Errorf("settle advanced fake clock by %v, want 5ms", got)
	}
}

// tickClock is a fakeClock that moves one nanosecond at every reading, so
// a span between two readings is 1ns plus whatever advanced it between
// them; reads counts the readings.
type tickClock struct {
	fakeClock
	reads int
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	t := c.now
	c.now = t.Add(time.Nanosecond)
	return t
}

// slowTransport swallows sends, charging each probe perProbe on the clock.
type slowTransport struct {
	nullTransport
	clock    *tickClock
	perProbe time.Duration
}

func (s *slowTransport) Send(ctx context.Context, b *wildnet.Batch) (int, error) {
	s.clock.Advance(time.Duration(len(b.Dst)) * s.perProbe)
	return len(b.Dst), nil
}

// TestSenderPhaseCounters pins the engine's per-phase Timing counters on a
// three-batch sweep: an order-10 space less its first /24 is 768 targets,
// three full pulls and the empty one that ends the round. One sender
// reads the clock at every phase boundary, so the pull wait and the pull
// hold four 1ns ticks each, build three, and send three plus the
// transport's 1µs per probe. The counters are Timing class, and a
// scanner without a registry never reads the clock.
func TestSenderPhaseCounters(t *testing.T) {
	bl := lfsr.NewBlacklist()
	if err := bl.AddCIDR("0.0.0.0/24"); err != nil {
		t.Fatal(err)
	}
	sweep := func(reg *metrics.Registry) *tickClock {
		fc := &tickClock{fakeClock: fakeClock{now: time.Unix(1_000_000, 0)}}
		tr := &slowTransport{clock: fc, perProbe: time.Microsecond}
		s := New(tr, Options{Workers: 1, SettleDelay: NoSettle, Clock: fc, Metrics: reg})
		res, err := s.SweepContext(context.Background(), 10, 3, bl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probed != 768 {
			t.Fatalf("probed %d targets, want 768", res.Probed)
		}
		return fc
	}
	reg := metrics.New()
	sweep(reg)
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"scanner.sweep.sent":         768,
		"scanner.sweep.pull_wait_ns": 4,
		"scanner.sweep.pull_ns":      4,
		"scanner.sweep.build_ns":     3,
		"scanner.sweep.send_ns":      3 + 768*1000,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, c := range snap.StripTiming().Counters {
		if strings.HasSuffix(c.Name, "_ns") {
			t.Errorf("StripTiming kept %s", c.Name)
		}
	}
	if fc := sweep(nil); fc.reads != 0 {
		t.Errorf("a scanner without a registry read the clock %d times", fc.reads)
	}
}
