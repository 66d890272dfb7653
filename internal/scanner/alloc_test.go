package scanner

import (
	"context"
	"net/netip"
	"testing"

	"goingwild/internal/alloctest"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// The sweep budget is the point of the zero-alloc engine: these tests pin
// the send and receive paths at zero heap allocations per probe at steady
// state, so a regression (a string conversion, an escaping slice, a full
// Message unpack) fails CI instead of silently halving throughput. A zero
// budget is counted with alloctest.Count: a path that allocates in each
// of three windows of 500 runs fails, so any growth at least once per 500
// runs is caught.

func TestSweepSendPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	if n := batchAllocs(t, sweepBuild(dnswire.NewCensusQuery(scanBaseWire(t), 0))); n != 0 {
		t.Fatalf("sweep batch assembly allocates %d times over 500 batches of %d, want 0", n, streamBatch)
	}
}

// TestSweepRetrySendPathAllocs pins the retry rounds to the same budget:
// salting the anti-caching prefix with the attempt number must not cost
// an allocation, or a lossy-profile sweep (which retries a large share of
// the population) would pay per-probe garbage the census never did.
func TestSweepRetrySendPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	for attempt := 1; attempt <= 2; attempt++ {
		if n := batchAllocs(t, sweepBuild(dnswire.NewCensusQuery(scanBaseWire(t), attempt))); n != 0 {
			t.Fatalf("attempt %d: retry batch assembly allocates %d times over 500 batches of %d, want 0", attempt, n, streamBatch)
		}
	}
}

// TestAliveProbeSendPathAllocs holds the churn study's alive probes, the
// one per-target caller of dnswire.AppendTargetQuery, to the same budget:
// the encoder must not allocate into an arena that has capacity.
func TestAliveProbeSendPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	addrs := make([]uint32, streamBatch)
	for i := range addrs {
		addrs[i] = 0x0A0B0C0D + uint32(i)*0x01010101
	}
	if n := batchAllocs(t, aliveBuild(addrs, scanBaseWire(t))); n != 0 {
		t.Fatalf("alive-probe batch assembly allocates %d times over 500 batches of %d, want 0", n, streamBatch)
	}
}

func scanBaseWire(t *testing.T) []byte {
	t.Helper()
	baseWire, err := dnswire.EncodeNameWire(dnswire.CanonicalName(domains.ScanBase))
	if err != nil {
		t.Fatal(err)
	}
	return baseWire
}

// batchAllocs counts the heap allocations of 500 full batches assembled
// the way a sender does: a pooled probeBatch, reset, one build add per
// item 0 … streamBatch−1, finish. The first probe's bytes are read
// through its AppendPayload, which builds a template probe's query.
func batchAllocs(t *testing.T, build probeBuild) uint64 {
	t.Helper()
	bat := probeBatchPool.Get().(*probeBatch)
	defer probeBatchPool.Put(bat)
	scratch := make([]byte, 0, 512)
	return alloctest.Count(500, func() {
		bat.reset()
		for u := range uint32(streamBatch) {
			bat.add(u, build)
		}
		probes := bat.finish()
		if payload := probes[0].AppendPayload(scratch[:0]); len(probes) != streamBatch || len(payload) == 0 {
			t.Fatalf("batch of %d probes, first payload %d bytes", len(probes), len(payload))
		}
	})
}

func TestSweepReceivePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	// Build one realistic sweep response: the echoed question plus an A
	// answer.
	u := uint32(0x7F01)
	m, err := dnswire.Unpack(dnswire.NewCensusQuery(scanBaseWire(t), 0).Append(nil, u))
	if err != nil {
		t.Fatal(err)
	}
	name := m.Questions[0].Name
	m.Header.QR = true
	m.AddAnswer(name, dnswire.ClassIN, 60, dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")})
	payload, err := m.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	src := lfsr.U32ToAddr(u)

	st := newSweepCollector(domains.ScanBase, 16)
	st.receive(src, 53, 33000, payload) // first delivery inserts
	if st.missed(u) {
		t.Fatal("the stored responder's target is not marked answered")
	}
	// Steady state: duplicate responses (and by extension every parse)
	// must not touch the heap.
	if n := alloctest.Count(500, func() {
		st.receive(src, 53, 33000, payload)
	}); n != 0 {
		t.Fatalf("sweep receive path allocates %d times over 500 responses, want 0", n)
	}
	res := (&Scanner{}).collectSweep(st, 1)
	if len(res.Responders) != 1 {
		t.Fatalf("collector holds %d responders, want 1", len(res.Responders))
	}
	if r := res.Responders[0]; r.Addr != u || !r.Answered || r.RCode != dnswire.RCodeNoError {
		t.Fatalf("bad responder: %+v", r)
	}
}

// aliveReplayTransport answers the first probe it is sent and then
// replays that answer into the scan's receiver under alloctest.Count: the
// alive scan's receive path at steady state, a duplicate response to a
// claimed position.
type aliveReplayTransport struct {
	recv   func(src netip.Addr, srcPort, dstPort uint16, payload []byte)
	allocs uint64
	err    error
	done   bool
}

func (r *aliveReplayTransport) SendBatch(_ context.Context, batch []wildnet.Probe) (int, error) {
	if r.done {
		return len(batch), nil
	}
	r.done = true
	p := batch[0]
	m, err := dnswire.Unpack(p.AppendPayload(nil))
	if err != nil {
		r.err = err
		return 0, err
	}
	m.Header.QR = true
	payload, err := m.PackBytes()
	if err != nil {
		r.err = err
		return 0, err
	}
	r.recv(p.Dst, 53, p.SrcPort, payload) // the first delivery claims
	r.allocs = alloctest.Count(500, func() {
		r.recv(p.Dst, 53, p.SrcPort, payload)
	})
	return len(batch), nil
}

func (r *aliveReplayTransport) SetReceiver(f func(src netip.Addr, srcPort, dstPort uint16, payload []byte)) {
	r.recv = f
}

func (r *aliveReplayTransport) Close() error { return nil }

// TestAliveReceivePathAllocs: an alive response costs a wire view, a
// binary search and a claim bit, and no allocation.
func TestAliveReceivePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	tr := &aliveReplayTransport{}
	addrs := []uint32{0x0A000001, 0x0A000100, 0x0A010000}
	alive, err := New(tr, Options{Workers: 1, SettleDelay: NoSettle}).ProbeAliveContext(context.Background(), addrs)
	if err != nil || tr.err != nil {
		t.Fatal(err, tr.err)
	}
	if len(alive) != 1 || !alive[addrs[0]] {
		t.Fatalf("alive set %v, want only %#x", alive, addrs[0])
	}
	if tr.allocs != 0 {
		t.Fatalf("alive receive path allocates %d times over 500 responses, want 0", tr.allocs)
	}
}

func TestNOERRORPreallocates(t *testing.T) {
	res := &SweepResult{Responders: []Responder{
		{Addr: 1, RCode: dnswire.RCodeNoError},
		{Addr: 2, RCode: dnswire.RCodeRefused},
		{Addr: 3, RCode: dnswire.RCodeNoError},
	}}
	out := res.NOERROR()
	if len(out) != 2 || cap(out) != 2 {
		t.Fatalf("NOERROR len=%d cap=%d, want exact-size 2/2", len(out), cap(out))
	}
	if out[0] != 1 || out[1] != 3 {
		t.Fatalf("NOERROR order: %v", out)
	}
	if got := (&SweepResult{}).NOERROR(); got != nil {
		t.Fatalf("empty NOERROR = %v, want nil", got)
	}
}

// TestDomainScanAllocsPerTuple budgets the answered path end to end: one
// (name, resolver) tuple is a probe built on the wire, the simulated
// resolver reading it through a View and appending its answer on the
// wire, the View decode and the collector. It cost 22.8 allocations
// before the name Compressor and the wire-built queries, 9.9 while the
// resolver still built a Message per response, and measures 1.0 now: the
// answer set the result keeps, copied out in one allocation. The budget
// leaves room for a signature-cache miss or a grown pool, not for a
// Message.
func TestDomainScanAllocsPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	w, tr := testWorld(t, 14)
	defer tr.Close()
	s := New(tr, Options{Workers: 1, SettleDelay: NoSettle})
	census, err := s.SweepContext(context.Background(), 14, 1, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers, names := census.NOERROR(), domains.Names()
	tuples := len(resolvers) * len(names)
	if len(resolvers) < 50 {
		t.Fatalf("only %d resolvers in the order-14 world", len(resolvers))
	}
	answered := 0
	perScan := testing.AllocsPerRun(2, func() {
		res, err := s.ScanDomainsContext(context.Background(), resolvers, names)
		if err != nil {
			t.Fatal(err)
		}
		answered = 0
		for _, row := range res.Answers {
			for i := range row {
				if row[i].Answered() {
					answered++
				}
			}
		}
	})
	if answered < tuples*9/10 {
		t.Fatalf("%d of %d tuples answered; the budget is for the answered path", answered, tuples)
	}
	if per := perScan / float64(tuples); per > 3 {
		t.Fatalf("domain scan allocates %.1f per tuple over %d tuples, want <= 3", per, tuples)
	}
}

// TestSnoopRoundSendAllocs: a snoop round packs its query once, so the
// send side costs no allocation per resolver. Doubling the resolver list
// under a transport that answers nothing must not grow a round's
// allocation count: the round's one slice only gets longer.
// TestSnoopRoundReceiveAllocs holds the answered path to the same bound.
func TestSnoopRoundSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	s := New(&nullTransport{}, Options{Workers: 1, SettleDelay: NoSettle})
	resolvers := make([]uint32, 8192)
	for i := range resolvers {
		resolvers[i] = 0x0D000000 + uint32(i)
	}
	round := func(n int) float64 {
		return testing.AllocsPerRun(5, func() { s.SnoopRoundContext(context.Background(), resolvers[:n], "com", 1) })
	}
	half, full := round(len(resolvers)/2), round(len(resolvers))
	if per := (full - half) / float64(len(resolvers)/2); per > 0.05 {
		t.Fatalf("snoop round allocates %.2f per extra resolver (%.0f for %d, %.0f for %d), want none on the send side",
			per, half, len(resolvers)/2, full, len(resolvers))
	}
}
