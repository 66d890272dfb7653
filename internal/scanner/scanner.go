// Package scanner implements the measurement engine of §2.2 and §3.3: the
// Internet-wide UDP sweep that enumerates responding DNS resolvers (with
// LFSR-permuted targets and the hex-IP query-name encoding), the
// domain-set scans that probe every discovered resolver for the 155-name
// dataset (carrying a 25-bit resolver identifier split across transaction
// ID, UDP source port, and redundant 0x20 casing), and the CHAOS
// version-fingerprinting scan.
//
// The engine is transport-agnostic: the same code drives the in-memory
// world (millions of probes per second) and real UDP sockets through the
// loopback gateway.
//
// Every entrypoint takes a context. The scans (SweepContext,
// ScanDomainsContext, ...) abort between send batches, between rounds,
// and during settle waits, and all run on the one round loop in
// engine.go; a single exchange (ProbeContext and the lookups over it) is
// one batch of one. A query name that cannot be encoded fails a scan
// before any probe is sent, and a returning scan uninstalls its receiver.
package scanner

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"time"

	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// Transport is the packet interface the scanner drives. It is an alias
// of wildnet.Transport — the network layer owns the definition, so the
// scanner's view of a transport can never drift from the
// implementations (wildnet.MemTransport, wildnet.UDPTransport).
type Transport = wildnet.Transport

// listRetries is how many retry rounds a list scan (domain, alive) runs
// over the resolvers still silent after its first pass — one, the fixed
// retry count of §5's packet-loss handling. The CHAOS, snoop and ANY scans
// send once; a sweep takes its count from Options.SweepRetries.
const listRetries = 1

// basePort is the UDP source port of every probe but the ANY scan's
// (anyPort), and the first of the ProbePortCount ports a domain scan
// spreads its resolver identifier over.
const basePort = 33000

// Options tunes a scanner.
type Options struct {
	// RatePPS caps the probe rate in packets per second; 0 disables
	// rate limiting (useful against the in-memory transport).
	RatePPS int
	// Workers is the number of sender goroutines (default 8). It is the
	// only parallelism knob: scan results never depend on it.
	Workers int
	// SettleDelay is how long to wait for in-flight responses after a
	// send round on asynchronous transports. Default 50ms; a negative
	// value disables waiting entirely, which is correct for the
	// in-memory transport (it delivers responses synchronously inside
	// Send).
	SettleDelay time.Duration
	// SweepRetries adds retransmission rounds for sweep non-responders.
	// The default 0 keeps census semantics (exactly one probe per
	// target); fault profiles set 1–2 to ride over injected loss. Each
	// retry salts the anti-caching prefix, so the retransmission is a
	// new packet and redraws its loss fate.
	SweepRetries int
	// Clock supplies time to the rate limiter and settle delays.
	// Default SystemClock; tests inject a fake to exercise pacing
	// deterministically.
	Clock Clock
	// Metrics, when set, receives the scanner's traffic accounting:
	// probes sent/received per entrypoint, retry rounds and the probes
	// they sent, settle waits, and rate-limiter stalls. Metrics are a pure
	// side channel — scan results never depend on them — and every
	// value except the Timing-class stall counter is deterministic
	// across runs and GOMAXPROCS. Nil disables instrumentation at zero
	// hot-path cost.
	Metrics *metrics.Registry
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.SettleDelay == 0 {
		o.SettleDelay = 50 * time.Millisecond
	}
	if o.SweepRetries < 0 {
		o.SweepRetries = 0
	}
	if o.Clock == nil {
		o.Clock = SystemClock
	}
}

// Scanner drives probes over a transport.
type Scanner struct {
	tr   Transport
	opts Options
	rate *rateLimiter
	m    scanMetrics
}

// New builds a scanner.
func New(tr Transport, opts Options) *Scanner {
	opts.fill()
	s := &Scanner{tr: tr, opts: opts, rate: newRateLimiter(opts.RatePPS, opts.Clock), m: newScanMetrics(opts.Metrics)}
	s.rate.stalls = s.m.rateStalls
	return s
}

// ErrNoTransport is returned when the scanner was built with nil.
var ErrNoTransport = errors.New("scanner: nil transport")

// rateLimiter is a token bucket; rate 0 means unlimited.
type rateLimiter struct {
	interval time.Duration
	clock    Clock
	// stalls counts pacing sleeps (Timing class — how often the limiter
	// held a sender back depends on real elapsed time). Nil when
	// metrics are off.
	stalls *metrics.Counter
	mu     sync.Mutex
	next   time.Time
}

func newRateLimiter(pps int, clock Clock) *rateLimiter {
	if clock == nil {
		clock = SystemClock
	}
	if pps <= 0 {
		return &rateLimiter{clock: clock}
	}
	return &rateLimiter{interval: time.Second / time.Duration(pps), clock: clock}
}

func (r *rateLimiter) wait(ctx context.Context) {
	if r.interval == 0 {
		return
	}
	r.mu.Lock()
	now := r.clock.Now()
	if r.next.Before(now) {
		r.next = now
	}
	sleep := r.next.Sub(now)
	r.next = r.next.Add(r.interval)
	r.mu.Unlock()
	// Sleep only when meaningfully ahead of schedule: timer resolution
	// is ~1ms, so sub-millisecond pacing is achieved by micro-bursts.
	// A cancelled context cuts the pacing sleep short so a slow scan
	// does not outlive its deadline by one token.
	if sleep > 2*time.Millisecond {
		r.stalls.Inc()
		sleepCtx(ctx, r.clock, sleep)
	}
}

// settle waits for late responses on asynchronous transports. A negative
// SettleDelay (synchronous transport) skips the wait. A dead context
// skips or cuts short the wait and is reported as ctx.Err().
func (s *Scanner) settle(ctx context.Context) error {
	if s.opts.SettleDelay > 0 {
		s.m.settleWaits.Inc()
		return sleepCtx(ctx, s.opts.Clock, s.opts.SettleDelay)
	}
	return ctx.Err()
}

// NoSettle is the SettleDelay value for synchronous transports.
const NoSettle = -1 * time.Millisecond

// netip4 abbreviates the address type in receiver callbacks.
type netip4 = netip.Addr

// addrU32 converts for the hot path.
//
//lint:hotpath per-response address conversion
func addrU32(a netip.Addr) uint32 { return lfsr.AddrToU32(a) }
