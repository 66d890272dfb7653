package scanner

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// Responder is one host that answered the Internet-wide sweep.
type Responder struct {
	// Addr is the probed target address (recovered from the hex-IP
	// query name, not the packet source, §2.2).
	Addr uint32
	// Source is the address the response actually came from; differing
	// from Addr marks multi-homed hosts and DNS proxies.
	Source uint32
	RCode  dnswire.RCode
	// Answered reports a non-empty A answer section.
	Answered bool
}

// MisSourced reports whether the response came from a different host than
// probed.
func (r Responder) MisSourced() bool { return r.Addr != r.Source }

// SweepResult aggregates one Internet-wide scan.
type SweepResult struct {
	// Probed is the number of targets probed (after blacklisting).
	Probed uint64
	// Responders lists every answering host, by target address.
	Responders []Responder
	// ByRCode counts responders per status code (Figure 1 series).
	ByRCode map[dnswire.RCode]int
}

// Total returns the count of responding hosts.
func (r *SweepResult) Total() int { return len(r.Responders) }

// NOERROR returns the addresses of resolvers that answered NOERROR — the
// population every follow-up experiment starts from. The result is sized
// exactly in one pass before filling, since at the 27M-responder scale of
// §2.2 append-doubling would copy the slice ~25 times.
func (r *SweepResult) NOERROR() []uint32 {
	n := 0
	for _, resp := range r.Responders {
		if resp.RCode == dnswire.RCodeNoError {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]uint32, 0, n)
	for _, resp := range r.Responders {
		if resp.RCode == dnswire.RCodeNoError {
			out = append(out, resp.Addr)
		}
	}
	return out
}

// MisSourcedCount counts responders replying from foreign addresses.
func (r *SweepResult) MisSourcedCount() int {
	n := 0
	for _, resp := range r.Responders {
		if resp.MisSourced() {
			n++
		}
	}
	return n
}

// sweepCollector accumulates sweep responses: one claim bit per target
// of the 2^order space decides which response is the target's, and only
// that one is appended to the responder list. The retry rounds' miss
// check reads the same bits without a lock. Its receive method is the hot
// receiver callback: one pooled wire view, no Message, no allocation at
// steady state.
type sweepCollector struct {
	base string // canonical scan base the qname must end in
	// answered holds one bit per target, claimed by its first response:
	// 32 KB at order 18.
	answered claimBits
	// mu guards responders: each claimed target's response, in arrival
	// order.
	mu         sync.Mutex
	responders []Responder
	recv       *metrics.Counter // valid sweep responses seen (nil = metrics off)
}

func newSweepCollector(base string, order uint) *sweepCollector {
	space := uint64(1) << order
	return &sweepCollector{
		base:       dnswire.CanonicalName(base),
		answered:   newClaimBits(space),
		responders: make([]Responder, 0, space/64),
	}
}

// receive handles one response datagram. The first response per target
// wins; a target outside the space (a garbled name can decode to one) has
// no bit, and no round probes it, so it is dropped.
//
//lint:hotpath per-probe / per-response sweep path
func (st *sweepCollector) receive(src netip4, srcPort, dstPort uint16, payload []byte) {
	v := dnswire.GetView()
	defer dnswire.PutView(v)
	if err := v.Reset(payload); err != nil || !v.QR() || v.QDCount() == 0 {
		return
	}
	target, ok := dnswire.DecodeTargetQNameU32(v.QName(), st.base)
	if !ok {
		return
	}
	st.recv.Inc()
	if !st.answered.claim(target) {
		return
	}
	r := Responder{
		Addr:     target,
		Source:   addrU32(src),
		RCode:    v.RCode(),
		Answered: v.HasAnswerA(),
	}
	st.mu.Lock()
	st.responders = append(st.responders, r)
	st.mu.Unlock()
}

// missed reports whether target u of the space has no responder: the
// sweep's miss check.
//
//lint:hotpath per-probe miss check of a retry round
func (st *sweepCollector) missed(u uint32) bool { return !st.answered.has(u) }

// SweepContext probes every address of a 2^order space once, in
// LFSR-permuted order, skipping the blacklist. Each probe is a DNS A
// query for prefix.hex-ip.scanbase, so responses are attributed to the
// probed target regardless of their source address. Targets stream from
// the generator straight to the sender workers — the permutation is
// never materialized.
//
// Cancellation is honored between send batches and during the settle
// wait. A cancelled sweep returns ctx.Err() together with a consistent
// partial result: every response collected before the abort is present,
// sorted, and counted, so callers that tolerate partial censuses can keep
// it.
//
// On the scan engine the target source is the LFSR generator, the
// builder the census template, and SweepRetries the retry rounds. A
// census sends exactly one probe per target: retransmitting to the
// silent majority (non-resolvers) would double the scan for a
// fraction-of-a-percent gain, and loss is accounted for by the
// secondary-vantage verification scan instead (§2.2). Retry rounds exist
// for the fault profiles: they re-probe only still-silent targets with an
// attempt-salted anti-caching prefix, so every retransmission is a new
// packet with a fresh loss draw.
func (s *Scanner) SweepContext(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist) (*SweepResult, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	st, run, err := s.newSweep(order, seed, bl)
	if err != nil {
		return nil, err
	}
	// The installed receiver binds the collector; it goes with the
	// return, so a returned sweep leaves nothing on the transport.
	s.tr.SetReceiver(st.receive)
	defer s.tr.SetReceiver(nil)
	err = s.run(ctx, run)
	return s.collectSweep(st, run.probed), err
}

// newSweep returns a sweep's collector and its run on the engine: the
// LFSR generator as the source, the round's census template as the
// builder — a round's batches are its kept targets, and the transport
// builds a target's query bytes only where a host can read them — and
// the collector's answered bitmap as the miss check.
func (s *Scanner) newSweep(order uint, seed uint32, bl *lfsr.Blacklist) (*sweepCollector, *scanRun, error) {
	gen, err := lfsr.NewTargetGenerator(order, seed, bl)
	if err != nil {
		return nil, nil, err
	}
	st := newSweepCollector(domains.ScanBase, order)
	st.recv = s.m.sweepRecv
	baseWire, err := dnswire.EncodeNameWire(st.base)
	if err != nil {
		return nil, nil, err
	}
	return st, &scanRun{
		src:    gen,
		chunk:  streamBatch,
		rounds: s.opts.SweepRetries,
		build: func(round int) probeBuild {
			return probeBuild{tmpl: dnswire.NewCensusQuery(baseWire, round)}
		},
		miss: st.missed,
		ctr:  s.m.sweep,
	}, nil
}

// collectSweep freezes the collector into the sorted result.
func (s *Scanner) collectSweep(st *sweepCollector, probed uint64) *SweepResult {
	res := &SweepResult{Probed: probed, ByRCode: make(map[dnswire.RCode]int)}
	// The result takes the list: a response that still arrives appends to
	// a new one.
	st.mu.Lock()
	res.Responders, st.responders = st.responders, nil
	st.mu.Unlock()
	for _, r := range res.Responders {
		res.ByRCode[r.RCode]++
	}
	// Responders arrive in the senders' interleaving; sort so the list
	// (and everything derived from it, e.g. NOERROR ordering) is
	// reproducible.
	sort.Slice(res.Responders, func(i, j int) bool {
		return res.Responders[i].Addr < res.Responders[j].Addr
	})
	return res
}

// ProbeContext sends a single query toward one resolver and returns all
// responses that arrive before the settle deadline (the GFW study needs
// to observe response races, §4.2). A dead context sends nothing; one
// that dies during the settle wait surfaces as ctx.Err() alongside
// whatever arrived; a name that cannot be encoded sends nothing and
// returns the encoder's error. The probe goes out as a batch of one on
// the caller's goroutine, and every response that passes View.Validate
// is kept: a copy of its datagram, in arrival order, for the caller to
// read through a View.
func (s *Scanner) ProbeContext(ctx context.Context, addr uint32, name string, typ dnswire.Type, class dnswire.Class) ([][]byte, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	wire, err := dnswire.AppendQuery(nil, 0x5157, true, name, typ, class)
	if err != nil {
		return nil, fmt.Errorf("scanner: probe query for %q: %w", name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var out [][]byte
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		v := dnswire.GetView()
		defer dnswire.PutView(v)
		if v.Reset(payload) != nil || v.Validate() != nil || !v.QR() {
			return
		}
		s.m.probeRecv.Inc()
		mu.Lock()
		out = append(out, append([]byte(nil), payload...))
		mu.Unlock()
	})
	defer s.tr.SetReceiver(nil)
	s.m.probeSent.Inc()
	//lint:allow errdrop single-exchange send failures are modeled packet loss
	s.tr.Send(ctx, &wildnet.Batch{Dst: []uint32{addr}, DstPort: 53, SrcPort: basePort, Payload: wire})
	err = s.settle(ctx)
	mu.Lock()
	defer mu.Unlock()
	return out, err
}
