package resolvesvc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"goingwild/internal/churn"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/pipeline"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// epochQueueDepth bounds how many swept-but-unapplied epoch deltas may
// buffer between the producer and the store — the backpressure that keeps
// the sweeper from running ahead of what is served. It caps the sweeper's
// lead over the committed epoch at epochQueueDepth+2 weeks (the delta being
// applied, the queue, and the sweep in flight or blocked in Put), the lead
// wildnet.blockCacheWeeks is sized for.
const epochQueueDepth = 2

// Config parameterizes the service's continuous epoch loop.
type Config struct {
	// Order and ScanSeed select the target space and the per-epoch seed
	// schedule, exactly as the one-shot studies do.
	Order    uint
	ScanSeed uint32
	// Epochs is how many weekly sweeps the producer runs before the
	// stream ends (a daemon passes a large horizon; tests pass a few).
	Epochs int
	// Blacklist is excluded from sweeps, as everywhere else.
	Blacklist *lfsr.Blacklist
	// OnEpoch, when set, observes each committed epoch (live logging;
	// pure side channel).
	OnEpoch func(EpochStatus)
}

// Deps are the service's collaborators. The sweep scanner and the
// prober MUST ride separate transports: scanner.ProbeContext installs
// its own receiver on its transport, so a demand probe sharing the
// sweep's transport would steal the sweep's receiver mid-epoch. The
// world itself is immutable after construction, so two MemTransports
// over it observe identical resolver behavior.
type Deps struct {
	// Scanner runs the weekly sweeps (the epoch producer).
	Scanner *scanner.Scanner
	// SweepClock advances the producer transport's simulated time.
	SweepClock churn.Clock
	// Prober sends demand probes for cache misses on its own transport.
	Prober *scanner.Scanner
	// ProbeClock pins the prober transport to the last committed epoch,
	// so demand probes observe the same world state the store serves.
	ProbeClock churn.Clock
	// Locator maps addresses to country/RIR for new records.
	Locator churn.Locator
	// Metrics receives the service counters; nil disables them.
	Metrics *metrics.Registry
	// WallClock times a miss's wait for its demand probe, the
	// svc.probe.wait_us histogram (default scanner.SystemClock). Nothing
	// in the service sleeps on it.
	WallClock scanner.Clock
}

// EpochStatus is the live per-epoch observation handed to OnEpoch.
type EpochStatus struct {
	Epoch   int
	Probed  uint64
	Deltas  int
	Records int
	Open    int
	Lag     int
}

// Result is one lookup's answer.
type Result struct {
	Record Record
	// Epoch is the committed epoch the answer was served at.
	Epoch int
	// Source is "store" for a fresh-record hit, "probe" when the answer
	// came from a (possibly coalesced) demand probe.
	Source string
}

// ErrStopped is returned by lookups whose demand probe was abandoned
// because the service is shutting down.
var ErrStopped = errors.New("resolvesvc: service stopped")

// ErrOutOfSpace is returned for an address outside the scanned space
// 1 … 2^Order−1: no sweep will ever confirm or retire a record there, so
// the service neither probes nor stores it.
var ErrOutOfSpace = errors.New("resolvesvc: address outside the scanned space")

// ErrOverloaded is returned when a miss would open a demand probe while
// maxPending are already unanswered; the lookup is shed, not queued.
var ErrOverloaded = errors.New("resolvesvc: too many demand probes pending")

// maxPending caps the demand probes not yet answered (queued or
// executing). The probe path is a request amplifier — one cheap GET buys
// one probe — so its queue is bounded and the excess refused; 4096 is
// three orders above what the benchmark's closed-loop clients can hold
// open, and a constant because no caller needs another value.
const maxPending = 4096

// Bucket bounds of the probe-path histograms: waits in microseconds,
// from the few a probe and its two goroutine hand-offs cost up to a
// stalled service's second, and batch sizes up to the cap.
var (
	waitBucketsUS = []int64{10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10_000, 50_000, 100_000, 1_000_000}
	batchBuckets  = []int64{1, 2, 4, 8, 16, 64, 256, 1024, maxPending}
)

// svcMetrics bundles the service's registry handles (all nil-safe).
type svcMetrics struct {
	// Request-path counters are Timing class: how many lookups hit,
	// miss, refresh, or coalesce depends on request arrival relative to
	// epoch commits — schedule, not seed.
	hit       *metrics.Counter
	miss      *metrics.Counter
	refresh   *metrics.Counter
	coalesced *metrics.Counter
	rejected  *metrics.Counter
	shed      *metrics.Counter
	probes    *metrics.Counter
	// The probe path as the coalescer sees it: how long the lookup that
	// opened a probe waited for its answer, how many addresses each
	// batch held, how many probes are unanswered now.
	wait    *metrics.Histogram
	batch   *metrics.Histogram
	pending *metrics.Gauge
	// Epoch-side state is Deterministic: after epoch k the committed
	// count and the sweep-born store shape are a pure function of
	// (order, seed) — the same contract the streaming engine keeps.
	epochs  *metrics.Counter
	records *metrics.Gauge
	open    *metrics.Gauge
	// lag is the producer's lead over the applier in buffered epochs,
	// a scheduling observation (Timing, like pipeline queue depths).
	lag *metrics.Gauge
}

func newSvcMetrics(reg *metrics.Registry) svcMetrics {
	if reg == nil {
		return svcMetrics{}
	}
	return svcMetrics{
		hit:       reg.TimingCounter("svc.lookup.hit"),
		miss:      reg.TimingCounter("svc.lookup.miss"),
		refresh:   reg.TimingCounter("svc.lookup.refresh"),
		coalesced: reg.TimingCounter("svc.lookup.coalesced"),
		rejected:  reg.TimingCounter("svc.lookup.rejected"),
		shed:      reg.TimingCounter("svc.lookup.shed"),
		probes:    reg.TimingCounter("svc.probe.done"),
		wait:      reg.TimingHistogram("svc.probe.wait_us", waitBucketsUS),
		batch:     reg.TimingHistogram("svc.probe.batch", batchBuckets),
		pending:   reg.TimingGauge("svc.probe.pending"),
		epochs:    reg.Counter("svc.epoch.done"),
		records:   reg.Gauge("svc.store.records"),
		open:      reg.Gauge("svc.store.open"),
		lag:       reg.TimingGauge("svc.epoch.lag"),
	}
}

// inflight is one demand probe not yet answered; every lookup coalesced
// onto it waits for done and reads rec/err.
type inflight struct {
	done chan struct{}
	rec  Record
	err  error
}

// Service is the resolver-intelligence daemon core: a continuously
// refreshed store plus a coalescing demand-prober.
type Service struct {
	cfg   Config
	deps  Deps
	store *Store

	// pending holds every demand probe not yet answered — queued or
	// executing — keyed by target, so a lookup can join one until its
	// answer is in; queue holds the queued ones in arrival order. wake
	// (capacity 1) nudges the coalescer; stopped is set once it has
	// exited and nothing will be probed again.
	mu      sync.Mutex
	pending map[uint32]*inflight
	queue   []uint32
	stopped bool
	wake    chan struct{}

	// probeFn performs one demand probe and records it in the store.
	// It defaults to demandProbe; tests inject deterministic stand-ins.
	probeFn func(ctx context.Context, addr uint32) (Record, error)

	m svcMetrics
}

// New builds a service. It does not start anything; Run does.
func New(cfg Config, deps Deps) *Service {
	if deps.WallClock == nil {
		deps.WallClock = scanner.SystemClock
	}
	s := &Service{
		cfg:     cfg,
		deps:    deps,
		store:   NewStore(),
		pending: map[uint32]*inflight{},
		wake:    make(chan struct{}, 1),
		m:       newSvcMetrics(deps.Metrics),
	}
	s.probeFn = s.demandProbe
	return s
}

// Store exposes the result store (read-side consumers: HTTP handlers,
// load generator, tests).
func (s *Service) Store() *Store { return s.store }

// Run drives the epoch loop: the producer re-sweeps the space epoch
// after epoch behind a bounded queue, and the applier commits each
// delta batch to the store, whose ApplyEpoch checks the stream
// contract. Run returns once all cfg.Epochs have been applied (or ctx
// dies, or the stream breaks its contract). The coalescer keeps serving demand probes until ctx is
// cancelled — a daemon cancels on shutdown, which fails any still-
// waiting lookups with ErrStopped.
func (s *Service) Run(ctx context.Context) error {
	q := pipeline.NewQueue[churn.EpochDelta](epochQueueDepth)
	prodErr := make(chan error, 1)
	prodCtx, cancelProd := context.WithCancel(ctx)
	defer cancelProd()
	go func() {
		err := churn.StreamWeekly(prodCtx, s.deps.Scanner, s.deps.SweepClock, churn.StudyConfig{
			Order:     s.cfg.Order,
			Seed:      s.cfg.ScanSeed,
			Weeks:     s.cfg.Epochs,
			Blacklist: s.cfg.Blacklist,
		}, q.Put)
		q.Close()
		prodErr <- err
	}()
	go s.coalesce(ctx)

	for {
		d, ok, err := q.Get(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		lag := q.Len()
		if err := s.store.ApplyEpoch(d.Week, d.Deltas, s.deps.Locator); err != nil {
			return err
		}
		// Demand probes now observe the world at the committed epoch's
		// time, matching what the store just published.
		if s.deps.ProbeClock != nil {
			s.deps.ProbeClock.SetTime(wildnet.At(d.Week))
		}
		s.m.epochs.Inc()
		s.m.lag.Set(int64(lag))
		s.m.records.Set(int64(s.store.Records()))
		s.m.open.Set(int64(s.store.OpenCount()))
		if s.cfg.OnEpoch != nil {
			s.cfg.OnEpoch(EpochStatus{
				Epoch:   d.Week,
				Probed:  d.Probed,
				Deltas:  len(d.Deltas),
				Records: s.store.Records(),
				Open:    s.store.OpenCount(),
				Lag:     lag,
			})
		}
	}
	return <-prodErr
}

// Lookup answers "what do we know about this IP". A record the store
// can vouch for (present and fresh at the committed epoch) is a pure
// in-memory hit. Anything else — absent record, or a flappy record past
// its refresh TTL — funnels into the coalescer: the first lookup per
// target enqueues a demand probe, lookups for the same target coalesce
// onto it until its answer is in, and everyone wakes with that answer.
// An address outside the scanned space is refused with ErrOutOfSpace
// before store or coalescer see it.
func (s *Service) Lookup(ctx context.Context, addr uint32) (Result, error) {
	if addr == 0 || uint64(addr) >= 1<<s.cfg.Order {
		s.m.rejected.Inc()
		return Result{}, ErrOutOfSpace
	}
	res, known, fresh := s.vouched(addr)
	switch {
	case fresh:
		s.m.hit.Inc()
		return res, nil
	case known:
		s.m.refresh.Inc()
	default:
		s.m.miss.Inc()
	}
	return s.await(ctx, addr)
}

// vouched reads addr's record as a store answer at the committed epoch;
// fresh reports whether the store vouches for it, i.e. whether it may be
// served without a probe.
func (s *Service) vouched(addr uint32) (res Result, known, fresh bool) {
	epoch := s.store.Epoch()
	r, known := s.store.Get(addr)
	return Result{Record: r, Epoch: epoch, Source: "store"}, known, known && s.store.Fresh(r, epoch)
}

// await joins (or opens) the unanswered probe for addr and waits it out.
// Joining is never refused; opening is, with ErrOverloaded, once
// maxPending probes are unanswered.
func (s *Service) await(ctx context.Context, addr uint32) (Result, error) {
	var opened time.Time
	s.mu.Lock()
	fl, joined := s.pending[addr]
	switch {
	case s.stopped:
		s.mu.Unlock()
		return Result{}, ErrStopped
	case joined:
		s.m.coalesced.Inc()
	case len(s.pending) >= maxPending:
		s.mu.Unlock()
		s.m.shed.Inc()
		return Result{}, ErrOverloaded
	default:
		// A probe stores its record before its entry leaves pending, so
		// finding neither an entry nor (still under mu) a fresh record
		// means no probe for addr has been answered since this lookup
		// read the store: it opens one. Without the second read, a probe
		// completing between Lookup's read and this lock would be sent
		// twice.
		if res, _, fresh := s.vouched(addr); fresh {
			s.mu.Unlock()
			return res, nil
		}
		opened = s.deps.WallClock.Now()
		fl = &inflight{done: make(chan struct{})}
		s.pending[addr] = fl
		s.queue = append(s.queue, addr)
		s.m.pending.Set(int64(len(s.pending)))
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
	select {
	case <-fl.done:
		if !joined {
			s.m.wait.Observe(s.deps.WallClock.Now().Sub(opened).Microseconds())
		}
		if fl.err != nil {
			return Result{}, fl.err
		}
		return Result{Record: fl.rec, Epoch: s.store.Epoch(), Source: "probe"}, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// coalesce is the demand-probe loop, and the probe in flight is its
// clock: it swaps the queue out and probes it front to back, answering
// each address (entry out of pending, done closed) as its probe returns,
// and parks on wake only when a swap finds the queue empty. An idle service therefore probes a lone miss at once, and a
// busy one batches exactly the misses that arrived while the previous
// batch was on the wire — no window to wait out or tune. One goroutine
// runs every probe because the prober transport takes one receiver at a
// time (scanner.ProbeContext installs it) and because a probe must run
// under the service's context, not under the request that happened to
// open it. It runs until ctx dies, then fails whatever is unanswered.
func (s *Service) coalesce(ctx context.Context) {
	defer s.failPending()
	var batch []uint32
	for {
		s.mu.Lock()
		batch, s.queue = s.queue, batch[:0]
		s.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-ctx.Done():
				return
			case <-s.wake:
			}
			continue
		}
		s.m.batch.Observe(int64(len(batch)))
		for _, a := range batch {
			if ctx.Err() != nil {
				return
			}
			rec, err := s.probeFn(ctx, a)
			s.m.probes.Inc()
			s.mu.Lock()
			fl := s.pending[a]
			delete(s.pending, a)
			s.m.pending.Set(int64(len(s.pending)))
			s.mu.Unlock()
			fl.rec, fl.err = rec, err
			close(fl.done)
		}
	}
}

// failPending wakes every lookup still waiting — queued, or in a batch
// the coalescer abandoned — with ErrStopped, and turns later misses away
// with the same error: nothing will probe for them.
func (s *Service) failPending() {
	s.mu.Lock()
	unanswered := s.pending
	s.pending, s.queue, s.stopped = nil, nil, true
	s.m.pending.Set(0)
	s.mu.Unlock()
	for _, fl := range unanswered {
		fl.err = ErrStopped
		close(fl.done)
	}
}

// demandProbe sends one on-demand query at addr through the prober
// transport and folds the observation into the store. The qname prefix
// ("q"+hex) differs from the sweep's ("r"+hex) and the alive-probe's
// ("c"+hex), so a demand probe is a distinct packet identity with its
// own fault draws — it can never perturb the sweep's loss schedule.
func (s *Service) demandProbe(ctx context.Context, addr uint32) (Record, error) {
	name := dnswire.EncodeTargetQName(fmt.Sprintf("q%x", addr&0xFFFF), lfsr.U32ToAddr(addr), domains.ScanBase)
	msgs, err := s.deps.Prober.ProbeContext(ctx, addr, name, dnswire.TypeA, dnswire.ClassIN)
	if err != nil && len(msgs) == 0 {
		return Record{}, err
	}
	open := len(msgs) > 0
	var rcode dnswire.RCode
	var answered bool
	if open {
		v := dnswire.GetView()
		defer dnswire.PutView(v)
		if err := v.Reset(msgs[0]); err != nil {
			return Record{}, err
		}
		rcode, answered = v.RCode(), v.HasAnswerA()
	}
	return s.store.RecordProbe(addr, s.store.Epoch(), open, rcode, answered, s.deps.Locator), nil
}
