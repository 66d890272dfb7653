package wildnet

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"

	"goingwild/internal/lfsr"
)

// Transport is the scanner's view of the network: fire-and-forget UDP
// datagrams toward virtual addresses, with responses delivered to a
// receiver callback. Two implementations exist: the in-memory transport
// below, which scales to millions of hosts, and the loopback UDP gateway
// (udpgate.go), which drives the same world over real sockets.
// scanner.Transport is an alias of this interface, so the two layers can
// never drift.
type Transport interface {
	// SendBatch is the one way onto the wire: it transmits the probes in
	// order — a single exchange is a batch of one — and lets the
	// implementation amortize per-packet overhead: the in-memory
	// transport takes its clock lock and receiver load once per batch,
	// the UDP gateway transport hands the kernel the whole batch in one
	// sendmmsg(2). Delivery is not guaranteed (packet loss is part of the
	// model, §5 "Completeness"). It returns how many probes were
	// processed; on error, probes [0, n) were handled and batch[n] was
	// not. A cancelled ctx aborts the batch — including, on the
	// synchronous in-memory transport, the response deliveries that
	// happen inside SendBatch — with ctx.Err(). Each Probe.Payload is
	// borrowed for the duration of the call only: implementations copy or
	// consume it before returning and neither keep nor modify it, because
	// scans build probes into pooled buffers and lend one shared payload
	// to many probes, from many goroutines at once.
	SendBatch(ctx context.Context, batch []Probe) (int, error)
	// SetReceiver registers the response callback. It must be called
	// before the first SendBatch. The callback may run concurrently, and
	// must not retain payload after returning: the in-memory transport
	// packs responses into pooled buffers that are reused for later
	// deliveries.
	SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, payload []byte))
	// Close releases resources; no callbacks run after Close returns.
	Close() error
}

// ErrTransportClosed is returned by SendBatch after Close.
var ErrTransportClosed = errors.New("wildnet: transport closed")

// errIPv4Only rejects non-IPv4 destinations on every transport.
var errIPv4Only = errors.New("wildnet: transport is IPv4-only")

// Probe is one ready-to-send datagram. Payload is borrowed for the
// duration of the SendBatch call only: transports must not retain it,
// mirroring the receiver-side contract.
type Probe struct {
	Dst     netip.Addr
	DstPort uint16
	SrcPort uint16
	Payload []byte
}

// MemTransport delivers packets synchronously through the world model.
// Responses are invoked on the caller's goroutine in delay order, so a
// scan's concurrency model is exercised without real timers.
type MemTransport struct {
	world   *World
	vantage Vantage
	recv    atomic.Pointer[func(src netip.Addr, srcPort, dstPort uint16, payload []byte)]
	closed  atomic.Bool

	mu    sync.Mutex
	clock Time

	// attempts counts identical retransmissions for the fault layer's
	// redraws; nil (and never touched) when the world has no faults. Only
	// datagrams that reach process take an entry, so a sweep's map holds
	// its deliverable destinations, not the address space.
	attempts *attemptCounter
}

// NewMemTransport wires a scanner vantage to the world.
func NewMemTransport(w *World, v Vantage) *MemTransport {
	m := &MemTransport{world: w, vantage: v}
	if w.faultsOn {
		m.attempts = newAttemptCounter()
	}
	return m
}

// SetTime moves the transport's simulation clock; subsequent queries are
// answered as of t. A new simulated instant redraws every packet fate, so
// the fault layer's retransmission counter restarts with it.
func (m *MemTransport) SetTime(t Time) {
	m.mu.Lock()
	m.clock = t
	m.mu.Unlock()
	if m.attempts != nil {
		m.attempts.reset()
	}
}

// Time returns the current simulation clock.
func (m *MemTransport) Time() Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

// SetReceiver implements Transport.
func (m *MemTransport) SetReceiver(f func(src netip.Addr, srcPort, dstPort uint16, payload []byte)) {
	m.recv.Store(&f)
}

// putExchange adds an exchange scratch's tallies to the world's counters
// — once per SendBatch, so the shared counters cost an answered exchange
// nothing — and returns it to the pool.
func (m *MemTransport) putExchange(x *exchange) {
	m.world.sendAnswered.Add(x.answered)
	m.world.respBytes.Add(x.bytes)
	x.answered, x.bytes = 0, 0
	exchangePool.Put(x)
}

// undeliverable is the second half of SendBatch's dispatch decision,
// given the destination's sweepClassify verdict: true when nothing there
// can answer this datagram (fastpath.go), so the loop drops it before the
// hash, the loss draws, the attempt counter, the parse and the handler.
// Small enough to inline.
func (m *MemTransport) undeliverable(class sweepClass, dstPort uint16, payload []byte) bool {
	return class == classReject || class == classCNOnly && !m.cnCouldAnswer(dstPort, payload)
}

// SendBatch implements Transport: each query is processed by the world
// and all its surviving responses are delivered to the receiver before
// the next probe is looked at, with the clock lock, the block-table load,
// the exchange scratch and the counters amortized over the whole batch.
// This is the hot path of every simulated scan, so the query is read
// through a View, the responses are appended on the wire, and the
// two-response common case of the sort runs in place, all in one pooled
// exchange scratch, and the context is checked only at loop edges (entry
// and between response deliveries), never per byte — between deliveries
// by polling its Done channel, fetched once per batch, since Err takes
// the context's mutex, which concurrent senders under one signal context
// share.
//
// Under every fault profile the destination is classified first: a
// datagram nothing can answer is counted in wildnet.send.rejected and
// dropped there. It draws no base or fault loss, takes no attempt-counter
// entry, and moves no wildnet.fault.* counter — faults act on exchanges
// that have a live endpoint, and a dropped, flapped or delivered probe to
// empty space is the same silence to the sender. Behind a deliverable
// destination the next one is first looked up in the profile memo
// (knownResolver), so a list scan's resolvers are dispatched without the
// tenancy draws the handler has already made for them.
func (m *MemTransport) SendBatch(ctx context.Context, batch []Probe) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if m.closed.Load() {
		return 0, ErrTransportClosed
	}
	t := m.Time()
	bc := m.world.blockCache(t.Week)
	done := ctx.Done()
	// Rejects are tallied locally and added once per batch, so the
	// shared counter costs the silent majority nothing.
	n, rejected := len(batch), uint64(0)
	x := exchangePool.Get().(*exchange)
	var err error
	// afterDeliver is true behind a deliverable destination, where a list
	// scan's next one is most likely a resolver the memo knows.
	afterDeliver := false
	// lent is the last payload hashed and lentHash its hash. A payload
	// lent to many probes (a snoop round's one query) has the same
	// backing array and length in each, and no payload may change during
	// SendBatch, so it is hashed once.
	var lent []byte
	var lentHash uint64
	for i := range batch {
		p := &batch[i]
		if !p.Dst.Is4() {
			n, err = i, errIPv4Only
			break
		}
		u32dst := lfsr.AddrToU32(p.Dst)
		class := classDeliver
		if !afterDeliver || !m.world.knownResolver(u32dst, m.vantage, t, bc) {
			class = m.world.sweepClassify(u32dst, m.vantage, t, bc)
		}
		if afterDeliver = !m.undeliverable(class, p.DstPort, p.Payload); !afterDeliver {
			rejected++
			continue
		}
		if !sameBacking(p.Payload, lent) {
			lent, lentHash = p.Payload, hashBytes(p.Payload)
		}
		if err = m.process(ctx, done, x, u32dst, p.DstPort, p.SrcPort, p.Payload, lentHash, t); err != nil {
			n = i
			break
		}
	}
	m.world.sendRejected.Add(rejected)
	m.putExchange(x)
	return n, err
}

// sameBacking reports whether a and b are one non-empty run of bytes:
// the same backing array from the same start, of the same length.
func sameBacking(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// process runs one datagram through the world at simulated time t, in
// the exchange scratch x, and delivers the surviving responses. qph is
// hashBytes(payload), and done is ctx.Done().
func (m *MemTransport) process(ctx context.Context, done <-chan struct{}, x *exchange, u32dst uint32, dstPort, srcPort uint16, payload []byte, qph uint64, t Time) error {
	// Independent loss on the query packet.
	if m.drop(dirQuery, u32dst, dstPort, srcPort, qph, t) {
		return nil
	}
	// The fault layer rides behind one cached bool: a zero FaultConfig
	// costs the hot path nothing beyond this branch.
	var fc faultCtx
	if m.world.faultsOn {
		fc = faultCtx{payloadHash: qph, attempt: m.attempts.next(u32dst, qph)}
		if m.world.faultDrop(dirQuery, u32dst, dstPort, srcPort, qph, t, fc.attempt) {
			return nil
		}
	}
	if dstPort != 53 {
		return nil
	}
	// Datagrams the handler does not accept vanish, as on the real
	// Internet.
	resps := m.world.handleDNS(x, m.vantage, srcPort, u32dst, payload, t, fc)
	if len(resps) == 0 {
		return nil
	}
	x.answered++
	if m.world.faultsOn {
		// Latency, jitter, and the delivery deadline reshape the
		// response timeline before the delay sort, so injected-response
		// races are decided on the faulted ordering.
		resps = m.world.faultAdjustResponses(resps, t, fc)
	}
	// Deliver in delay order. An exchange yields one or two responses
	// (the second being an injected racer, §4.2).
	if len(resps) == 2 && resps[1].DelayMS < resps[0].DelayMS {
		resps[0], resps[1] = resps[1], resps[0]
	}
	recv := m.recv.Load()
	if recv == nil {
		return nil
	}
	limit := m.world.udpPayloadLimit(u32dst, x.edns, x.hasEDNS, t)
	for _, r := range resps {
		// A context death mid-delivery drops the remaining responses,
		// exactly as a real cancelled scan stops reading its socket.
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		wire := x.wire(r)
		if len(wire) == 0 {
			continue // the response did not encode
		}
		// Oversized responses go out as the empty TC-bit reply, cut from
		// the bytes already written.
		wire = m.world.fitUDP(wire, limit)
		rph := hashBytes(wire)
		if m.drop(dirResponse, r.Src, 53, r.ToPort, rph, t) {
			continue
		}
		deliveries := 1
		if m.world.faultsOn {
			if m.world.faultDrop(dirResponse, r.Src, 53, r.ToPort, rph, t, fc.attempt) {
				continue
			}
			// Garble mutates the arena in place; the draw keys on the
			// pre-corruption hash so it stays a pure packet fate.
			m.world.faultGarble(wire, r.Src, rph, t, fc.attempt)
			if m.world.faultDup(r.Src, rph, t, fc.attempt) {
				deliveries = 2
			}
		}
		if m.closed.Load() {
			return ErrTransportClosed
		}
		for d := 0; d < deliveries; d++ {
			x.bytes += uint64(len(wire))
			(*recv)(m.world.Addr(r.Src), 53, r.ToPort, wire)
		}
	}
	return nil
}

// QueryTCP performs a synchronous DNS-over-TCP exchange with the resolver
// at dst, for truncated-response fallback. ok is false when the resolver
// offers no TCP service.
func (m *MemTransport) QueryTCP(dst netip.Addr, payload []byte) ([]byte, bool) {
	if m.closed.Load() || !dst.Is4() {
		return nil, false
	}
	x := exchangePool.Get().(*exchange)
	defer exchangePool.Put(x)
	resps := m.world.handleDNSTCP(x, m.vantage, lfsr.AddrToU32(dst), payload, m.Time())
	if len(resps) == 0 || resps[0].end == resps[0].off {
		return nil, false
	}
	return append([]byte(nil), x.wire(resps[0])...), true
}

// Loss-draw direction tags, so a query and its response get independent
// fates even when their bytes coincide.
const (
	dirQuery    = 0
	dirResponse = 1
)

// drop applies the configured loss rate as a pure function of the
// datagram and the simulation clock, never of arrival order: the same
// packet at the same simulated minute always shares one fate, no matter
// how many goroutines race to send, so seeded runs are byte-identical
// regardless of scheduling. The flip side is that an identical
// retransmission within the same simulated minute is pointless against
// the base rate — advance the clock (as the weekly/hourly experiments
// do), or vary the payload (as the sweep's retry rounds do), to redraw.
// The fault layer's draws additionally key on a retransmission counter
// (faultCtx.attempt), so retrying is meaningful under a chaos profile.
func (m *MemTransport) drop(dir uint64, addr uint32, aPort, bPort uint16, ph uint64, t Time) bool {
	if m.world.cfg.Loss <= 0 {
		return false
	}
	return m.world.pre[facetLoss].Add(dir).Add(uint64(addr)).
		Add(uint64(aPort)<<16|uint64(bPort)).Add(ph).
		Add(uint64(t.AbsHour()*60+t.Minute)).Unit() < m.world.cfg.Loss
}

// hashBytes folds a payload into one word (FNV-1a).
func hashBytes(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// Close implements Transport.
func (m *MemTransport) Close() error {
	m.closed.Store(true)
	return nil
}
