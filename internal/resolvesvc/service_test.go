package resolvesvc

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goingwild/internal/churn"
	"goingwild/internal/dnswire"
	"goingwild/internal/geodb"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// testWorld bundles one simulated world with the service's two
// transports (sweep + prober) and its locator.
type testWorld struct {
	world   *wildnet.World
	sweepTr *wildnet.MemTransport
	probeTr *wildnet.MemTransport
	deps    Deps
	bl      *lfsr.Blacklist
}

func newTestWorld(t testing.TB, order uint, reg *metrics.Registry) *testWorld {
	t.Helper()
	wcfg := wildnet.DefaultConfig(order)
	wcfg.Seed = 0x60176A11D
	wcfg.Loss = 0.002
	wcfg.Metrics = reg
	w, err := wildnet.NewWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sweepTr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	probeTr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	t.Cleanup(func() {
		sweepTr.Close()
		probeTr.Close()
	})
	opts := scanner.Options{Workers: 4, SettleDelay: scanner.NoSettle, Metrics: reg}
	loc := func(u uint32) (string, geodb.RIR) {
		l := w.Geo().LookupU32(u)
		return l.Country, l.RIR
	}
	return &testWorld{
		world:   w,
		sweepTr: sweepTr,
		probeTr: probeTr,
		bl:      w.ScanBlacklist(),
		deps: Deps{
			Scanner:    scanner.New(sweepTr, opts),
			SweepClock: sweepTr,
			Prober:     scanner.New(probeTr, scanner.Options{Workers: 2, SettleDelay: scanner.NoSettle, Metrics: reg}),
			ProbeClock: probeTr,
			Locator:    loc,
			Metrics:    reg,
			WallClock:  scanner.SystemClock,
		},
	}
}

func runService(t *testing.T, order uint, epochs int, reg *metrics.Registry) (*Service, *testWorld) {
	t.Helper()
	tw := newTestWorld(t, order, reg)
	svc := New(Config{Order: order, ScanSeed: 0x5EED, Epochs: epochs, Blacklist: tw.bl}, tw.deps)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := svc.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return svc, tw
}

// TestServiceStoreMatchesBatchStudy is the end-to-end parity proof: the
// service's store after N streamed epochs must agree, record for
// record, with the batch weekly study over an identical world — same
// responder set, same rcodes, and an open count equal to the batch
// series' final week.
func TestServiceStoreMatchesBatchStudy(t *testing.T) {
	const order, epochs = 14, 4
	svc, _ := runService(t, order, epochs, nil)
	store := svc.Store()

	// An identical world, measured by full sweeps on the study's clock
	// and seed schedule with no delta layer in between.
	wcfg := wildnet.DefaultConfig(order)
	wcfg.Seed = 0x60176A11D
	wcfg.Loss = 0.002
	w2, err := wildnet.NewWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := wildnet.NewMemTransport(w2, wildnet.VantagePrimary)
	defer tr2.Close()
	sc2 := scanner.New(tr2, scanner.Options{Workers: 4, SettleDelay: scanner.NoSettle})
	var series churn.Series
	for week := 0; week < epochs; week++ {
		tr2.SetTime(wildnet.At(week))
		res, err := sc2.SweepContext(context.Background(), order, 0x5EED+uint32(week), w2.ScanBlacklist())
		if err != nil {
			t.Fatal(err)
		}
		series.Weeks = append(series.Weeks, churn.WeekObservation{Week: week, Total: res.Total(), Responders: res.Responders})
	}
	last := series.Last()
	if store.OpenCount() != last.Total {
		t.Fatalf("store open = %d, batch final week total = %d", store.OpenCount(), last.Total)
	}
	for _, resp := range last.Responders {
		r, ok := store.Get(resp.Addr)
		if !ok || !r.Open {
			t.Fatalf("batch responder %08x missing/closed in store: %+v", resp.Addr, r)
		}
		if r.RCode != resp.RCode || r.Answered != resp.Answered {
			t.Fatalf("store record %08x = %+v, batch responder = %+v", resp.Addr, r, resp)
		}
		// Deltas only touch records on change, so a stably-open record
		// keeps LastSeen at its add epoch — it just can't postdate the
		// committed epoch.
		if r.LastSeen < r.FirstSeen || r.LastSeen > epochs-1 {
			t.Fatalf("store record %08x seen range [%d,%d] out of bounds", resp.Addr, r.FirstSeen, r.LastSeen)
		}
	}
	if store.Epoch() != epochs-1 {
		t.Fatalf("store epoch = %d, want %d", store.Epoch(), epochs-1)
	}
}

func TestServiceLookupHitThenProbeThenHit(t *testing.T) {
	reg := metrics.New()
	svc, _ := runService(t, 14, 3, reg)
	ctx := context.Background()

	open := svc.Store().List(true, 1)
	if len(open) == 0 {
		t.Fatal("no open resolvers after 3 epochs")
	}
	res, err := svc.Lookup(ctx, open[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "store" || !res.Record.Open || res.Epoch != 2 {
		t.Fatalf("known-record lookup: %+v", res)
	}
	if reg.Snapshot().Counter("svc.lookup.hit") != 1 {
		t.Fatalf("hit counter = %d, want 1", reg.Snapshot().Counter("svc.lookup.hit"))
	}

	// A never-swept address goes through the demand probe and is cached.
	var missAddr uint32
	for a := uint32(1); a < 1<<14; a++ {
		if _, ok := svc.Store().Get(a); !ok {
			missAddr = a
			break
		}
	}
	res, err = svc.Lookup(ctx, missAddr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "probe" || res.Record.FirstSeen != NeverSeen || !res.Record.Probed {
		t.Fatalf("miss lookup: %+v", res)
	}
	snap := reg.Snapshot()
	if snap.Counter("svc.lookup.miss") != 1 || snap.Counter("svc.probe.done") != 1 {
		t.Fatalf("miss=%d probes=%d, want 1/1", snap.Counter("svc.lookup.miss"), snap.Counter("svc.probe.done"))
	}
	// The probe-born record now serves from memory.
	res, err = svc.Lookup(ctx, missAddr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "store" {
		t.Fatalf("second lookup of probed target: %+v", res)
	}
	if snap := reg.Snapshot(); snap.Counter("svc.probe.done") != 1 {
		t.Fatalf("probe re-sent for cached target: %d", snap.Counter("svc.probe.done"))
	}
}

// startCoalescer runs svc's coalescer under a context of its own and
// returns that context's cancel and a channel closed once the goroutine
// has exited; the test's clean-up stops it and waits.
func startCoalescer(t testing.TB, svc *Service) (cancel context.CancelFunc, exited <-chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.coalesce(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel, done
}

// waitFor spins until cond holds, failing the test after five seconds.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// histogram returns the named histogram of a snapshot.
func histogram(t testing.TB, snap metrics.Snapshot, name string) metrics.HistogramValue {
	t.Helper()
	for _, h := range snap.Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("no histogram %s in the snapshot", name)
	return metrics.HistogramValue{}
}

// blockedProbes is an injected probeFn that parks every probe until the
// test releases it (or the coalescer's context dies), recording the
// order the probes ran in. Its answers go into the store like a real
// probe's.
type blockedProbes struct {
	svc     *Service
	entered chan uint32 // one send per probe, before it parks
	release chan struct{}

	mu    sync.Mutex
	order []uint32
}

func newBlockedProbes(svc *Service) *blockedProbes {
	// entered is sized so the probes of a full pending map never block on
	// a test that does not read it.
	b := &blockedProbes{svc: svc, entered: make(chan uint32, maxPending+1), release: make(chan struct{})}
	svc.probeFn = b.probe
	return b
}

func (b *blockedProbes) probe(ctx context.Context, addr uint32) (Record, error) {
	b.mu.Lock()
	b.order = append(b.order, addr)
	b.mu.Unlock()
	b.entered <- addr
	select {
	case <-b.release:
	case <-ctx.Done():
		return Record{}, ctx.Err()
	}
	return b.svc.store.RecordProbe(addr, b.svc.store.Epoch(), true, dnswire.RCodeNoError, true, testLoc), nil
}

func (b *blockedProbes) probed() []uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]uint32(nil), b.order...)
}

// TestServiceCoalescing pins the singleflight contract deterministically:
// 8 concurrent lookups for one cold target must produce exactly one
// probe, with the other 7 coalescing onto it *while it is in flight* —
// the probe itself is the gate, held until every joiner is counted. (A
// coalescer that forgets an address when it starts probing it sends a
// second probe for the joiners.)
func TestServiceCoalescing(t *testing.T) {
	reg := metrics.New()
	svc := New(Config{Order: 12}, Deps{Locator: testLoc, Metrics: reg})
	probes := newBlockedProbes(svc)
	startCoalescer(t, svc)
	ctx := context.Background()

	const fanout = 8
	const target = 42
	results := make([]Result, fanout)
	errs := make([]error, fanout)
	var wg sync.WaitGroup
	for i := 0; i < fanout; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Lookup(ctx, target)
		}(i)
	}
	<-probes.entered
	waitFor(t, "7 joiners on the probe in flight", func() bool {
		return reg.Snapshot().Counter("svc.lookup.coalesced") == fanout-1
	})
	close(probes.release)
	wg.Wait()

	for i := 0; i < fanout; i++ {
		if errs[i] != nil {
			t.Fatalf("lookup %d: %v", i, errs[i])
		}
		if results[i].Source != "probe" || !results[i].Record.Open {
			t.Fatalf("lookup %d result: %+v", i, results[i])
		}
	}
	if got := probes.probed(); len(got) != 1 {
		t.Fatalf("probe ran %d times, want 1 (singleflight)", len(got))
	}
	snap := reg.Snapshot()
	if snap.Counter("svc.lookup.miss") != fanout {
		t.Errorf("miss = %d, want %d (every burst lookup found no record)", snap.Counter("svc.lookup.miss"), fanout)
	}
	if snap.Counter("svc.probe.done") != 1 {
		t.Errorf("probe.done = %d, want 1", snap.Counter("svc.probe.done"))
	}
	if w := histogram(t, snap, "svc.probe.wait_us"); w.Count != 1 {
		t.Errorf("svc.probe.wait_us holds %d observations, want 1 (the lookup that opened the probe)", w.Count)
	}
}

// TestServiceBatchFormsBehindInFlightProbe pins the self-clocking: the
// misses that arrive while a probe is on the wire form the next batch,
// in arrival order, and are probed once each.
func TestServiceBatchFormsBehindInFlightProbe(t *testing.T) {
	reg := metrics.New()
	svc := New(Config{Order: 12}, Deps{Locator: testLoc, Metrics: reg})
	probes := newBlockedProbes(svc)
	startCoalescer(t, svc)
	ctx := context.Background()

	// A is probed alone and blocks; C, B, D register behind it one at a
	// time (deliberately not in address order).
	arrivals := []uint32{100, 300, 200, 400}
	var wg sync.WaitGroup
	for i, a := range arrivals {
		wg.Add(1)
		go func(a uint32) {
			defer wg.Done()
			if res, err := svc.Lookup(ctx, a); err != nil || res.Source != "probe" || res.Record.Addr != a {
				t.Errorf("lookup %d: %+v, %v", a, res, err)
			}
		}(a)
		if i == 0 {
			<-probes.entered
		}
		waitFor(t, "the miss to register", func() bool {
			return reg.Snapshot().Gauge("svc.probe.pending") == int64(i+1)
		})
	}
	close(probes.release)
	wg.Wait()

	if got := probes.probed(); !slices.Equal(got, arrivals) {
		t.Fatalf("probed %v, want arrival order %v", got, arrivals)
	}
	// Two batches, {A} and {C B D}: count 2, sum 4, one of them of size 1.
	b := histogram(t, reg.Snapshot(), "svc.probe.batch")
	if b.Count != 2 || b.Sum != 4 || b.Buckets[0].Count != 1 {
		t.Fatalf("svc.probe.batch = %+v, want one batch of 1 and one of 3", b)
	}
	if g := reg.Snapshot().Gauge("svc.probe.pending"); g != 0 {
		t.Fatalf("svc.probe.pending = %d after the drain", g)
	}
}

// noSleepClock is a wall clock nothing may sleep on.
type noSleepClock struct{ t *testing.T }

func (c noSleepClock) Now() time.Time { return time.Unix(0, 0) }
func (c noSleepClock) Sleep(d time.Duration) {
	c.t.Errorf("the service slept %v on its wall clock", d)
}

// TestServiceLoneMissNeedsNoClock: an idle service probes a lone miss at
// once — there is no window to wait out.
func TestServiceLoneMissNeedsNoClock(t *testing.T) {
	svc := New(Config{Order: 12}, Deps{Locator: testLoc, WallClock: noSleepClock{t}})
	svc.probeFn = func(_ context.Context, addr uint32) (Record, error) {
		return svc.store.RecordProbe(addr, 0, false, 0, false, testLoc), nil
	}
	startCoalescer(t, svc)
	res, err := svc.Lookup(context.Background(), 42)
	if err != nil || res.Source != "probe" {
		t.Fatalf("lone miss: %+v, %v", res, err)
	}
}

// TestServiceLookupOutOfSpace: the scanned space is 1 … 2^order−1; a
// lookup outside it is refused before it can cost a probe or a record.
func TestServiceLookupOutOfSpace(t *testing.T) {
	const order = 14
	reg := metrics.New()
	svc := New(Config{Order: order}, Deps{Locator: testLoc, Metrics: reg})
	svc.probeFn = func(_ context.Context, addr uint32) (Record, error) {
		return svc.store.RecordProbe(addr, 0, false, 0, false, testLoc), nil
	}
	startCoalescer(t, svc)
	for _, tc := range []struct {
		name string
		ip   string
		in   bool
	}{
		{"zero", "0.0.0.0", false},
		{"first in space", "0.0.0.1", true},
		{"last in space", "0.0.63.255", true},
		{"first out of space", "0.0.64.0", false},
		{"far outside", "200.1.2.3", false},
		{"broadcast", "255.255.255.255", false},
	} {
		addr := lfsr.AddrToU32(netip.MustParseAddr(tc.ip))
		before := svc.store.Records()
		res, err := svc.Lookup(context.Background(), addr)
		if tc.in {
			if err != nil || res.Source != "probe" || svc.store.Records() != before+1 {
				t.Errorf("%s (%s): %+v, %v, records %d→%d", tc.name, tc.ip, res, err, before, svc.store.Records())
			}
			continue
		}
		if !errors.Is(err, ErrOutOfSpace) || svc.store.Records() != before {
			t.Errorf("%s (%s): err = %v, records %d→%d; want ErrOutOfSpace and no record", tc.name, tc.ip, err, before, svc.store.Records())
		}
	}
	snap := reg.Snapshot()
	if snap.Counter("svc.lookup.rejected") != 4 || snap.Counter("svc.probe.done") != 2 || snap.Counter("svc.lookup.miss") != 2 {
		t.Errorf("rejected=%d probes=%d miss=%d, want 4/2/2",
			snap.Counter("svc.lookup.rejected"), snap.Counter("svc.probe.done"), snap.Counter("svc.lookup.miss"))
	}
}

// fillPending parks maxPending lookups for distinct cold addresses
// (1 … maxPending) behind a blocked probe and returns a wait for them.
func fillPending(t *testing.T, svc *Service, probes *blockedProbes) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for a := uint32(1); a <= maxPending; a++ {
		wg.Add(1)
		go func(a uint32) {
			defer wg.Done()
			if res, err := svc.Lookup(context.Background(), a); err != nil || res.Record.Addr != a {
				t.Errorf("parked lookup %d: %+v, %v", a, res, err)
			}
		}(a)
	}
	<-probes.entered
	waitFor(t, "pending to reach its cap", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return len(svc.pending) == maxPending
	})
	return &wg
}

// TestServiceShedsAtPendingCap: the demand-probe queue is bounded. With
// maxPending probes unanswered, a miss for one more address is shed with
// ErrOverloaded, a lookup for an address already pending still joins,
// and once the queue drains the cap admits new misses again.
func TestServiceShedsAtPendingCap(t *testing.T) {
	reg := metrics.New()
	svc := New(Config{Order: 16}, Deps{Locator: testLoc, Metrics: reg})
	probes := newBlockedProbes(svc)
	startCoalescer(t, svc)
	parked := fillPending(t, svc, probes)
	ctx := context.Background()

	if _, err := svc.Lookup(ctx, maxPending+1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("miss beyond the cap: err = %v, want ErrOverloaded", err)
	}
	snap := reg.Snapshot()
	if snap.Counter("svc.lookup.shed") != 1 || snap.Gauge("svc.probe.pending") != maxPending {
		t.Fatalf("shed=%d pending=%d, want 1/%d", snap.Counter("svc.lookup.shed"), snap.Gauge("svc.probe.pending"), maxPending)
	}
	if _, ok := svc.store.Get(maxPending + 1); ok {
		t.Fatal("a shed lookup left a record")
	}
	joined := make(chan error, 1)
	go func() {
		_, err := svc.Lookup(ctx, maxPending/2)
		joined <- err
	}()
	waitFor(t, "the joiner to coalesce", func() bool {
		return reg.Snapshot().Counter("svc.lookup.coalesced") == 1
	})

	close(probes.release)
	parked.Wait()
	if err := <-joined; err != nil {
		t.Fatalf("joiner at the cap: %v", err)
	}
	if res, err := svc.Lookup(ctx, maxPending+1); err != nil || res.Source != "probe" {
		t.Fatalf("miss after the drain: %+v, %v", res, err)
	}
	snap = reg.Snapshot()
	if snap.Counter("svc.lookup.shed") != 1 || snap.Counter("svc.probe.done") != maxPending+1 || snap.Gauge("svc.probe.pending") != 0 {
		t.Fatalf("after the drain: shed=%d probes=%d pending=%d", snap.Counter("svc.lookup.shed"), snap.Counter("svc.probe.done"), snap.Gauge("svc.probe.pending"))
	}
}

// TestServiceStopWakesEveryWaiter is the "time to die" audit of the
// coalescer's waits: cancelling its context while one probe is blocked
// and others are queued wakes the executing probe's waiter with the
// probe's context error and the queued ones with ErrStopped, the
// goroutine exits, and a later miss is turned away instead of parking
// behind a coalescer that is gone.
func TestServiceStopWakesEveryWaiter(t *testing.T) {
	reg := metrics.New()
	svc := New(Config{Order: 12}, Deps{Locator: testLoc, Metrics: reg})
	probes := newBlockedProbes(svc)
	cancel, exited := startCoalescer(t, svc)
	ctx := context.Background()

	errs := make(map[uint32]chan error)
	for i, a := range []uint32{10, 20, 30} {
		woke := make(chan error, 1)
		errs[a] = woke
		go func() {
			_, err := svc.Lookup(ctx, a)
			woke <- err
		}()
		if i == 0 {
			<-probes.entered
		}
		waitFor(t, "the miss to register", func() bool {
			return reg.Snapshot().Gauge("svc.probe.pending") == int64(i+1)
		})
	}
	cancel()
	for a, want := range map[uint32]error{10: context.Canceled, 20: ErrStopped, 30: ErrStopped} {
		select {
		case err := <-errs[a]:
			if !errors.Is(err, want) {
				t.Errorf("waiter on %d woke with %v, want %v", a, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter on %d still parked after the stop", a)
		}
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("coalescer goroutine still running after the stop")
	}
	if got := probes.probed(); len(got) != 1 {
		t.Errorf("probed %v after the stop, want only the one in flight", got)
	}
	if _, err := svc.Lookup(ctx, 40); !errors.Is(err, ErrStopped) {
		t.Errorf("miss after the stop: err = %v, want ErrStopped", err)
	}
	if g := reg.Snapshot().Gauge("svc.probe.pending"); g != 0 {
		t.Errorf("svc.probe.pending = %d after the stop", g)
	}
}

// TestServiceCoalescerStress hammers one coalescer from 16 goroutines
// over 64 addresses. The probe stores nothing, so every lookup is a
// miss: each one either opened a probe or joined one, no address ever
// has two probes in flight, and every answer is about the address asked.
// Run under -race (make race gives this package three schedules).
func TestServiceCoalescerStress(t *testing.T) {
	const goroutines, addrs = 16, 64
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	reg := metrics.New()
	svc := New(Config{Order: 12}, Deps{Locator: testLoc, Metrics: reg})
	var inFlight [addrs + 1]atomic.Int32
	svc.probeFn = func(_ context.Context, addr uint32) (Record, error) {
		if n := inFlight[addr].Add(1); n != 1 {
			t.Errorf("address %d has %d probes in flight", addr, n)
		}
		runtime.Gosched()
		inFlight[addr].Add(-1)
		return Record{Addr: addr, Probed: true}, nil
	}
	startCoalescer(t, svc)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < addrs; i++ {
					// Every goroutine walks the addresses from its own
					// offset, so they collide on some and not on others.
					addr := uint32(1 + (i+g*5)%addrs)
					res, err := svc.Lookup(ctx, addr)
					if err != nil || res.Record.Addr != addr || res.Source != "probe" {
						t.Errorf("lookup %d: %+v, %v", addr, res, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	lookups := uint64(goroutines * addrs * rounds)
	if got := snap.Counter("svc.probe.done") + snap.Counter("svc.lookup.coalesced"); got != lookups || snap.Counter("svc.lookup.miss") != lookups {
		t.Fatalf("probes %d + coalesced %d != %d lookups (miss %d)", snap.Counter("svc.probe.done"), snap.Counter("svc.lookup.coalesced"), lookups, snap.Counter("svc.lookup.miss"))
	}
	if b := histogram(t, snap, "svc.probe.batch"); uint64(b.Sum) != snap.Counter("svc.probe.done") {
		t.Fatalf("svc.probe.batch sums to %d addresses, %d probes ran", b.Sum, snap.Counter("svc.probe.done"))
	}
	if g := snap.Gauge("svc.probe.pending"); g != 0 {
		t.Fatalf("svc.probe.pending = %d at rest", g)
	}
}

// TestServiceStaleRecordRefreshes pins the churn-aware TTL: a flappy
// record past its refresh window is re-confirmed by a demand probe
// instead of served stale, and the refreshed record then hits.
func TestServiceStaleRecordRefreshes(t *testing.T) {
	reg := metrics.New()
	svc := New(Config{Order: 12}, Deps{
		Locator:   testLoc,
		Metrics:   reg,
		WallClock: scanner.SystemClock,
	})
	svc.probeFn = func(_ context.Context, addr uint32) (Record, error) {
		return svc.store.RecordProbe(addr, svc.store.Epoch(), true, dnswire.RCodeNoError, true, testLoc), nil
	}
	startCoalescer(t, svc)
	ctx := context.Background()

	// Epoch history: target 7 appears, vanishes, reappears (one flap,
	// TTL ttlBase>>1), then the world stays quiet until that TTL is up.
	st := svc.store
	epoch := 0
	mustApply := func(ds ...scanner.ResponderDelta) {
		t.Helper()
		if err := st.ApplyEpoch(epoch, ds, testLoc); err != nil {
			t.Fatal(err)
		}
		epoch++
	}
	mustApply(add(7, dnswire.RCodeNoError))
	mustApply(remove(7))
	mustApply(add(7, dnswire.RCodeNoError))
	for range ttlBase >> 1 {
		mustApply()
	}

	res, err := svc.Lookup(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "probe" {
		t.Fatalf("stale flappy record served from store: %+v", res)
	}
	snap := reg.Snapshot()
	if snap.Counter("svc.lookup.refresh") != 1 || snap.Counter("svc.lookup.hit") != 0 {
		t.Fatalf("refresh=%d hit=%d after stale lookup", snap.Counter("svc.lookup.refresh"), snap.Counter("svc.lookup.hit"))
	}
	// The probe stamped fresh evidence: the next lookup hits.
	res, err = svc.Lookup(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "store" {
		t.Fatalf("refreshed record still stale: %+v", res)
	}
	// A stable record (no flaps) never refreshes no matter the age.
	mustApply(add(9, dnswire.RCodeNoError))
	for range 4 * ttlBase {
		mustApply()
	}
	res, err = svc.Lookup(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "store" {
		t.Fatalf("stable record refreshed: %+v", res)
	}
}

// sweepWatch is the sweep transport's clock, reporting each week the
// producer starts on.
type sweepWatch struct {
	churn.Clock
	started chan int
}

func (c sweepWatch) SetTime(t wildnet.Time) {
	c.Clock.SetTime(t)
	c.started <- t.Week
}

// TestServiceBlockCacheRebuildsOncePerWeek pins the coupling between the
// epoch queue and the world's block-table cache. The sweeper runs ahead
// of the committed epoch the prober is pinned to, and the two transports
// share one World whose block tables are direct-mapped by week: a lead as
// long as the cache is wide evicts the prober's week, and every demand
// probe then rebuilds a table the sweeper's next batch rebuilds back.
// Each committed epoch here holds its cold lookup until the sweeper is as
// far ahead as the queue lets it get and has built that week's table, so
// the cache sees the lead a lookup between two commits sees (one racing a
// commit sees a week more, which blockCacheWeeks also covers) — and every
// week's table must still be built exactly once.
func TestServiceBlockCacheRebuildsOncePerWeek(t *testing.T) {
	const order, epochs = 14, 12
	reg := metrics.New()
	tw := newTestWorld(t, order, reg)
	// One sender: several would race to build a new week's table on their
	// first batches, and each of them counts.
	tw.deps.Scanner = scanner.New(tw.sweepTr, scanner.Options{Workers: 1, SettleDelay: scanner.NoSettle})
	// Room for every week, so the producer never waits on the test.
	started := make(chan int, epochs)
	tw.deps.SweepClock = sweepWatch{tw.sweepTr, started}
	rebuilds := reg.TimingCounter("wildnet.blockcache.rebuilds")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var svc *Service
	sweeping, maxLead, cold := -1, 0, uint32(0)
	svc = New(Config{Order: order, ScanSeed: 0x5EED, Epochs: epochs, Blacklist: tw.bl,
		OnEpoch: func(st EpochStatus) {
			// With this epoch in the applier's hands the queue takes
			// epochQueueDepth more, and the producer sweeps the one after
			// those before Put stops it.
			for sweeping < min(st.Epoch+epochQueueDepth+1, epochs-1) {
				sweeping = <-started
			}
			waitFor(t, "the sweeper's first batch of its week", func() bool { return rebuilds.Value() > uint64(sweeping) })
			maxLead = max(maxLead, sweeping-st.Epoch)
			for cold++; ; cold++ {
				if _, known := svc.Store().Get(cold); !known {
					break
				}
			}
			res, err := svc.Lookup(ctx, cold)
			if err != nil || res.Source != "probe" || res.Epoch != st.Epoch {
				t.Errorf("epoch %d: cold lookup of %#x = %+v, %v", st.Epoch, cold, res, err)
			}
		}}, tw.deps)
	if err := svc.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxLead != epochQueueDepth+1 {
		t.Errorf("sweeper led the probed epoch by at most %d weeks, want epochQueueDepth+1 = %d", maxLead, epochQueueDepth+1)
	}
	if got := reg.Snapshot().Counter("svc.probe.done"); got != epochs {
		t.Errorf("svc.probe.done = %d, want one cold probe per epoch (%d)", got, epochs)
	}
	if got := rebuilds.Value(); got != epochs {
		t.Errorf("wildnet.blockcache.rebuilds = %d over %d weeks swept and probed, want one build per week", got, epochs)
	}
}

// TestServiceZeroEpochs is the service-level empty-series regression: a
// zero-epoch run must come up serving (probe-only) over an empty store.
func TestServiceZeroEpochs(t *testing.T) {
	reg := metrics.New()
	tw := newTestWorld(t, 14, reg)
	svc := New(Config{Order: 14, ScanSeed: 0x5EED, Epochs: 0, Blacklist: tw.bl}, tw.deps)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Run(ctx); err != nil {
		t.Fatalf("zero-epoch Run: %v", err)
	}
	if svc.Store().Epoch() != -1 || svc.Store().Records() != 0 {
		t.Fatalf("zero-epoch store: epoch=%d records=%d", svc.Store().Epoch(), svc.Store().Records())
	}
	// Lookups still work: everything is a demand probe.
	res, err := svc.Lookup(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "probe" || res.Epoch != -1 {
		t.Fatalf("zero-epoch lookup: %+v", res)
	}
}

// requestPathSeries are the series whose values depend on when requests
// arrive; every one is Timing class.
var requestPathSeries = []string{
	"svc.lookup.hit", "svc.lookup.miss", "svc.lookup.refresh", "svc.lookup.coalesced",
	"svc.lookup.rejected", "svc.lookup.shed", "svc.probe.done",
	"svc.probe.wait_us", "svc.probe.batch", "svc.probe.pending", "svc.epoch.lag",
}

// TestServiceDeterministicMetrics pins the StripTiming contract: two
// identical runs (same world seed, same epochs, same sequential lookup
// script) must export byte-identical deterministic-class snapshots,
// with every request-path counter confined to the Timing class.
func TestServiceDeterministicMetrics(t *testing.T) {
	stripped := func() []byte {
		reg := metrics.New()
		svc, _ := runService(t, 14, 3, reg)
		ctx := context.Background()
		// A deterministic lookup script: every store record once.
		for _, r := range svc.Store().List(false, 0) {
			if _, err := svc.Lookup(ctx, r.Addr); err != nil {
				t.Fatal(err)
			}
		}
		// The request path is registered (so its absence below means
		// stripped, not missing), probe-path instruments included.
		var full bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&full); err != nil {
			t.Fatal(err)
		}
		for _, name := range requestPathSeries {
			if !bytes.Contains(full.Bytes(), []byte(name)) {
				t.Fatalf("snapshot missing %s", name)
			}
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().StripTiming().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := stripped(), stripped()
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	// The request-path series must be Timing class (stripped), since
	// their values depend on request arrival vs epoch commits.
	for _, name := range requestPathSeries {
		if bytes.Contains(a, []byte(name)) {
			t.Fatalf("request-path metric %s leaked into the deterministic snapshot", name)
		}
	}
	// The epoch-side state must be present and deterministic.
	for _, name := range []string{"svc.epoch.done", "svc.store.records", "svc.store.open"} {
		if !bytes.Contains(a, []byte(name)) {
			t.Fatalf("deterministic snapshot missing %s:\n%s", name, a)
		}
	}
}

// TestServiceLookupCancelled proves a lookup parked on the coalescer
// honors its context instead of hanging when no probe ever completes.
func TestServiceLookupCancelled(t *testing.T) {
	svc := New(Config{Order: 12}, Deps{Locator: testLoc})
	probes := newBlockedProbes(svc) // never released
	startCoalescer(t, svc)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := svc.Lookup(ctx, 42)
		done <- err
	}()
	<-probes.entered
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled lookup returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled lookup hung")
	}
}

// BenchmarkLookupMiss is what a miss costs, read without the harness:
// the real prober over an order-14 world, every lookup a distinct cold
// in-space address, two goroutines in a closed loop each (the
// benchmark's serve-churn has two clients). ns/lookup is the mean a
// caller waits; it was the 2 ms batch window when the coalescer had one.
func BenchmarkLookupMiss(b *testing.B) {
	const order, callers = 14, 2
	const space = 1<<order - 1
	tw := newTestWorld(b, order, nil)
	var waited atomic.Int64
	for done := 0; done < b.N; done += space {
		// A fresh service per pass over the space: a probed address is a
		// store hit ever after.
		b.StopTimer()
		svc := New(Config{Order: order, Blacklist: tw.bl}, tw.deps)
		cancel, exited := startCoalescer(b, svc)
		n := min(b.N-done, space)
		var wg sync.WaitGroup
		b.StartTimer()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				start := time.Now()
				for a := 1 + c; a <= n; a += callers {
					if res, err := svc.Lookup(context.Background(), uint32(a)); err != nil || res.Source != "probe" {
						b.Errorf("lookup %d: %+v, %v", a, res, err)
						return
					}
				}
				waited.Add(int64(time.Since(start)))
			}(c)
		}
		wg.Wait()
		b.StopTimer()
		cancel()
		<-exited
	}
	b.ReportMetric(float64(waited.Load())/float64(b.N), "ns/lookup")
}
