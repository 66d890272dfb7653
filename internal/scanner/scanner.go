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
// Every scan entrypoint has a context-aware variant (SweepContext,
// ScanDomainsContext, ...) that aborts between send batches, between
// retry rounds, and during settle waits. The ctx-less names are thin
// compatibility wrappers over those.
package scanner

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// Transport is the packet interface the scanner drives. It is an alias
// of wildnet.Transport — the network layer owns the definition, so the
// scanner's view of a transport can never drift from the
// implementations (wildnet.MemTransport, wildnet.UDPTransport).
type Transport = wildnet.Transport

// bgCtx backs the ctx-less compatibility wrappers (Sweep, ScanDomains,
// ...). New code should call the Context variants with a real caller
// context instead.
//
//lint:allow ctxhygiene sole Background escape for the ctx-less compatibility wrappers
var bgCtx = context.Background()

// NoRetries is the Options.Retries value that disables retransmission
// rounds entirely (the zero value means "default", which is 1 round).
const NoRetries = -1

// Options tunes a scanner.
type Options struct {
	// RatePPS caps the probe rate in packets per second; 0 disables
	// rate limiting (useful against the in-memory transport).
	RatePPS int
	// Workers is the number of sender goroutines (default 8). It is the
	// only parallelism knob: scan results never depend on it.
	Workers int
	// Retries is how many retransmission rounds cover unanswered
	// probes (packet loss, §5). The zero value defaults to 1;
	// NoRetries (or any negative value) disables retransmission.
	Retries int
	// SettleDelay is how long to wait for in-flight responses after a
	// send round on asynchronous transports. Default 50ms; a negative
	// value disables waiting entirely, which is correct for the
	// in-memory transport (it delivers responses synchronously inside
	// Send).
	SettleDelay time.Duration
	// Backoff is the adaptive delay between retransmission rounds
	// (exponential with deterministic seeded jitter, slept on Clock).
	// The zero value keeps the legacy behavior: rounds run back to back.
	Backoff BackoffConfig
	// RetryBudget caps the total number of retransmissions one scan
	// entrypoint may spend; retransmission lists are truncated in
	// deterministic target order when the budget binds. Zero means
	// unlimited.
	RetryBudget int
	// StageDeadline bounds one scan entrypoint's retry phase: once the
	// budget has elapsed on Clock, no further retry rounds start and the
	// scan returns its partial coverage. Zero means no deadline.
	StageDeadline time.Duration
	// SweepRetries adds retransmission rounds for sweep non-responders.
	// The default 0 keeps census semantics (exactly one probe per
	// target); fault profiles set 1–2 to ride over injected loss. Each
	// retry salts the anti-caching prefix, so the retransmission is a
	// new packet and redraws its loss fate.
	SweepRetries int
	// BasePort is the first of the ProbePortCount UDP source ports a
	// domain scan uses. Default 33000.
	BasePort uint16
	// Clock supplies time to the rate limiter and settle delays.
	// Default SystemClock; tests inject a fake to exercise pacing
	// deterministically.
	Clock Clock
	// Metrics, when set, receives the scanner's traffic accounting:
	// probes sent/received per entrypoint, retry rounds and budget
	// spend, settle waits, and rate-limiter stalls. Metrics are a pure
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
	if o.Retries == 0 {
		o.Retries = 1
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.SettleDelay == 0 {
		o.SettleDelay = 50 * time.Millisecond
	}
	if o.RetryBudget < 0 {
		o.RetryBudget = 0
	}
	if o.SweepRetries < 0 {
		o.SweepRetries = 0
	}
	if o.BasePort == 0 {
		o.BasePort = 33000
	}
	if o.Clock == nil {
		o.Clock = SystemClock
	}
}

// Scanner drives probes over a transport.
type Scanner struct {
	tr Transport
	// batch is the sweep's only dispatch: tr's own SendBatch, or the
	// loop-over-Send adapter for a transport without one.
	batch wildnet.BatchSender
	opts  Options
	rate  *rateLimiter
	m     scanMetrics
}

// New builds a scanner.
func New(tr Transport, opts Options) *Scanner {
	opts.fill()
	s := &Scanner{tr: tr, batch: batchSender(tr), opts: opts, rate: newRateLimiter(opts.RatePPS, opts.Clock), m: newScanMetrics(opts.Metrics)}
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

// sendAll distributes jobs across worker goroutines. Each job sends one
// probe; the rate limiter is shared. A cancelled context stops every
// worker at its next probe boundary; sendAll returns ctx.Err() in that
// case with an unspecified subset of the jobs sent.
//
// Cancellation is polled via ctx.Err() so a cancel() that fires inside a
// Send callback is observed at the very next probe — no watcher
// goroutine, no scheduling latency. The ctx-less wrappers pass a context
// whose Done() is nil, which skips the polling entirely and keeps the
// hot path exactly as fast as before contexts existed.
func (s *Scanner) sendAll(ctx context.Context, n int, send func(i int)) error {
	cancellable := ctx.Done() != nil
	workers := s.opts.Workers
	if n < workers {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cancellable && ctx.Err() != nil {
				return ctx.Err()
			}
			s.rate.wait(ctx)
			send(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancellable && ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s.rate.wait(ctx)
				send(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// streamBatch is how many targets a sender worker pulls from the shared
// generator per lock acquisition. 256 keeps the generator lock at well
// under 1% of each worker's time while bounding how far ahead of the
// others any worker can run.
const streamBatch = 256

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

// queryBufs recycles the wire buffers list scans build their probes into.
// A buffer is lent to Transport.Send for the call and goes back right
// after it.
var queryBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 128)
	return &b
}}

// getQuery builds a recursion-desired query into a pooled buffer; hand it
// back with queryBufs.Put once Send has returned. It panics only on
// programmer error (static names are always packable).
func getQuery(id uint16, name string, typ dnswire.Type, class dnswire.Class) *[]byte {
	bp := queryBufs.Get().(*[]byte)
	wire, err := dnswire.AppendQuery((*bp)[:0], id, true, name, typ, class)
	if err != nil {
		panic("scanner: unpackable query: " + err.Error())
	}
	*bp = wire
	return bp
}
