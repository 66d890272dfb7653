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

// cachePrefixN derives the per-target random label that defeats caching
// (§2.2), salted with the retry attempt: attempt 0 is byte-identical to
// the original census probe, while each retransmission round carries a
// fresh label — a genuinely new packet that redraws its per-packet loss
// fate (the target decode ignores the prefix, so attribution is
// unaffected). It is the defining computation; templateBuild writes the
// same digits per probe straight into the query.
func cachePrefixN(u uint32, attempt int) [5]byte {
	v := uint16((uint64(u)*2654435761 + uint64(attempt)*0x9E3779B9) >> 8)
	const hexdigits = "0123456789abcdef"
	return [5]byte{'r', hexdigits[v>>12], hexdigits[v>>8&0xF], hexdigits[v>>4&0xF], hexdigits[v&0xF]}
}

// sweepCollector accumulates sweep responses in a sharded map keyed by
// target address. Its receive method is the hot receiver callback: one
// pooled wire view, no Message, no allocation at steady state.
type sweepCollector struct {
	base      string // canonical scan base the qname must end in
	responses *shardedMap[Responder]
	recv      *metrics.Counter // valid sweep responses seen (nil = metrics off)
}

func newSweepCollector(base string, hint int) *sweepCollector {
	return &sweepCollector{
		base:      dnswire.CanonicalName(base),
		responses: newShardedMap[Responder](hint),
	}
}

// receive handles one response datagram. First response per target wins,
// as with the old single-map collector.
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
	st.responses.InsertOnce(target, Responder{
		Addr:     target,
		Source:   addrU32(src),
		RCode:    v.RCode(),
		Answered: v.HasAnswerA(),
	})
}

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
	gen, err := lfsr.NewTargetGenerator(order, seed, bl)
	if err != nil {
		return nil, err
	}
	st := newSweepCollector(domains.ScanBase, int(uint64(1)<<order/64))
	st.recv = s.m.sweepRecv
	baseWire, err := dnswire.EncodeNameWire(st.base)
	if err != nil {
		return nil, err
	}
	// The installed receiver binds the collector; it goes with the
	// return, so a returned sweep leaves nothing on the transport.
	s.tr.SetReceiver(st.receive)
	defer s.tr.SetReceiver(nil)
	run := &scanRun{
		src:    gen,
		chunk:  streamBatch,
		rounds: s.opts.SweepRetries,
		build: func(round int) probeBuild {
			return templateBuild(baseWire, round)
		},
		miss: func(u uint32) bool {
			_, answered := st.responses.Get(u)
			return !answered
		},
		ctr: s.m.sweep,
	}
	err = s.run(ctx, run)
	return s.collectSweep(st, run.probed), err
}

// collectSweep freezes the collector into the sorted result.
func (s *Scanner) collectSweep(st *sweepCollector, probed uint64) *SweepResult {
	res := &SweepResult{
		Probed:     probed,
		ByRCode:    make(map[dnswire.RCode]int),
		Responders: make([]Responder, 0, st.responses.Len()),
	}
	st.responses.Collect(func(_ uint32, r Responder) {
		res.Responders = append(res.Responders, r)
		res.ByRCode[r.RCode]++
	})
	// Shard maps iterate in unspecified order; sort so the responder list
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
// the caller's goroutine, and every response that decodes is kept.
func (s *Scanner) ProbeContext(ctx context.Context, addr uint32, name string, typ dnswire.Type, class dnswire.Class) ([]*dnswire.Message, error) {
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
	var out []*dnswire.Message
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.Header.QR {
			s.m.probeRecv.Inc()
			mu.Lock()
			out = append(out, m)
			mu.Unlock()
		}
	})
	defer s.tr.SetReceiver(nil)
	s.m.probeSent.Inc()
	//lint:allow errdrop single-exchange send failures are modeled packet loss
	s.tr.SendBatch(ctx, []wildnet.Probe{{Dst: lfsr.U32ToAddr(addr), DstPort: 53, SrcPort: basePort, Payload: wire}})
	err = s.settle(ctx)
	mu.Lock()
	defer mu.Unlock()
	return out, err
}
