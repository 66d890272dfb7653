package scanner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"goingwild/internal/wildnet"
)

// Stats counts a scanner's traffic, for operator dashboards and the
// abuse-avoidance reporting the paper's operators practiced (rate
// limiting, opt-out handling, §2.2/§5).
//
// The elapsed-time base is stamped lazily at the first Send, not at wrap
// time: a wrapped transport often sits idle through world construction
// and target generation, and charging that setup window to the scan
// would understate Rate(). startedAt is an atomic pointer because the
// wrapper is shared across sender goroutines; the sync.Once guarantees
// exactly one stamp even when many senders race the first probe.
type Stats struct {
	sent      atomic.Uint64
	received  atomic.Uint64
	bytesOut  atomic.Uint64
	bytesIn   atomic.Uint64
	clock     Clock
	startOnce sync.Once
	startedAt atomic.Pointer[time.Time]
}

// markStarted stamps the elapsed-time base on the first probe.
func (s *Stats) markStarted() {
	s.startOnce.Do(func() {
		t := s.clock.Now()
		s.startedAt.Store(&t)
	})
}

// Snapshot is a point-in-time view of the counters.
type Snapshot struct {
	Sent, Received    uint64
	BytesOut, BytesIn uint64
	Elapsed           time.Duration
}

// Rate returns the send rate in packets per second.
func (s Snapshot) Rate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Sent) / s.Elapsed.Seconds()
}

// ResponseRatio returns responses per probe.
func (s Snapshot) ResponseRatio() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Received) / float64(s.Sent)
}

// String renders the snapshot for logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("sent=%d recv=%d (%.1f%%) rate=%.0f pps out=%dB in=%dB",
		s.Sent, s.Received, 100*s.ResponseRatio(), s.Rate(), s.BytesOut, s.BytesIn)
}

// statsTransport wraps a Transport with counting. It stays transparent
// for everything the scanner type-asserts a transport for: batch
// dispatch, DNS-over-TCP and the fault layer's attempt counters.
type statsTransport struct {
	inner Transport
	// batch is inner's batch dispatch, resolved as New resolves it.
	batch wildnet.BatchSender
	stats *Stats
}

// WithStats wraps a transport so that all traffic through it is counted.
// It returns the wrapped transport and the live counters. Elapsed time
// is measured against SystemClock; tests use WithStatsClock.
func WithStats(inner Transport) (Transport, *Stats) {
	return WithStatsClock(inner, SystemClock)
}

// WithStatsClock is WithStats with an injected clock, so tests can
// assert on Elapsed and Rate exactly.
func WithStatsClock(inner Transport, clock Clock) (Transport, *Stats) {
	if clock == nil {
		clock = SystemClock
	}
	st := &Stats{clock: clock}
	return &statsTransport{inner: inner, batch: batchSender(inner), stats: st}, st
}

// Snapshot reads the counters. Elapsed is zero until the first probe is
// sent (the clock starts with the traffic, not with the wrapping).
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		Sent:     s.sent.Load(),
		Received: s.received.Load(),
		BytesOut: s.bytesOut.Load(),
		BytesIn:  s.bytesIn.Load(),
	}
	if start := s.startedAt.Load(); start != nil {
		snap.Elapsed = s.clock.Now().Sub(*start)
	}
	return snap
}

// Send implements Transport.
func (t *statsTransport) Send(ctx context.Context, dst netip4, dstPort, srcPort uint16, payload []byte) error {
	t.stats.markStarted()
	t.stats.sent.Add(1)
	t.stats.bytesOut.Add(uint64(len(payload)))
	return t.inner.Send(ctx, dst, dstPort, srcPort, payload)
}

// SendBatch implements wildnet.BatchSender, so a counted transport keeps
// its inner transport's bulk path (one sendmmsg(2) per batch over UDP).
// Only the probes the inner transport handled are counted.
func (t *statsTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	t.stats.markStarted()
	n, err := t.batch.SendBatch(ctx, batch)
	var bytes uint64
	for i := range batch[:n] {
		bytes += uint64(len(batch[i].Payload))
	}
	t.stats.sent.Add(uint64(n))
	t.stats.bytesOut.Add(bytes)
	return n, err
}

// AttemptsState forwards the wrapped fault layer's retransmission
// counters (nil when the inner transport keeps none), so a checkpoint
// taken through the wrapper carries them.
func (t *statsTransport) AttemptsState() []wildnet.AttemptRecord {
	if tc, ok := t.inner.(attemptsCarrier); ok {
		return tc.AttemptsState()
	}
	return nil
}

// RestoreAttempts forwards a checkpoint's retransmission counters to the
// wrapped transport.
func (t *statsTransport) RestoreAttempts(recs []wildnet.AttemptRecord) {
	if tc, ok := t.inner.(attemptsCarrier); ok {
		tc.RestoreAttempts(recs)
	}
}

// SetReceiver implements Transport, interposing the counters.
func (t *statsTransport) SetReceiver(f func(src netip4, srcPort, dstPort uint16, payload []byte)) {
	t.inner.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		t.stats.received.Add(1)
		t.stats.bytesIn.Add(uint64(len(payload)))
		f(src, srcPort, dstPort, payload)
	})
}

// Close implements Transport.
func (t *statsTransport) Close() error { return t.inner.Close() }

// QueryTCP forwards DNS-over-TCP when the wrapped transport supports it,
// keeping the wrapper transparent for truncation fallback.
func (t *statsTransport) QueryTCP(dst netip4, payload []byte) ([]byte, bool) {
	tq, ok := t.inner.(TCPQuerier)
	if !ok {
		return nil, false
	}
	t.stats.markStarted()
	t.stats.sent.Add(1)
	t.stats.bytesOut.Add(uint64(len(payload)))
	resp, ok := tq.QueryTCP(dst, payload)
	if ok {
		t.stats.received.Add(1)
		t.stats.bytesIn.Add(uint64(len(resp)))
	}
	return resp, ok
}
