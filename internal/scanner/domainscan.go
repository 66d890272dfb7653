package scanner

import (
	"context"
	"fmt"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// TupleAnswer is the outcome of one (domain, resolver) probe — the raw
// material of the (domain ∘ ip ∘ resolver) tuples of §3.
type TupleAnswer struct {
	ResolverIdx int
	RCode       dnswire.RCode
	// Addrs is the A answer set (nil for empty answer sections).
	Addrs []uint32
	// NSOnly marks responses carrying only authority NS records.
	NSOnly bool
	// Responses counts how many responses arrived for the probe;
	// values above 1 betray injected answers racing the legitimate one
	// (the Great Firewall signature, §4.2).
	Responses int
	// SecondAddrs is the answer set of a second, later response.
	SecondAddrs []uint32
	// PortRewritten marks responses that arrived on an unexpected
	// destination port and were recovered via the 0x20 bits.
	PortRewritten bool
}

// Answered reports whether any response arrived.
func (t *TupleAnswer) Answered() bool { return t.Responses > 0 }

// DomainScanResult holds one domain-set scan: a row per scanned name, a
// column per resolver.
type DomainScanResult struct {
	Resolvers []uint32
	Names     []string
	// Answers[nameIdx][resolverIdx]
	Answers [][]TupleAnswer
}

// ScanDomainsContext queries every resolver for every name. Each probe
// carries the resolver's index as a 25-bit identifier: 16 bits in the DNS
// transaction ID, 9 bits selecting the UDP source port, and the same 9
// bits redundantly 0x20-encoded into the query name's letter casing —
// exactly the encoding of §3.3, which survives resolvers that rewrite the
// response's destination port.
//
// Cancellation checkpoints sit between name rounds, between retry rounds
// and between send batches; a cancelled scan returns the partially filled
// result together with ctx.Err(). A name that cannot be encoded ends the
// scan with the encoder's error and the rows measured so far.
func (s *Scanner) ScanDomainsContext(ctx context.Context, resolvers []uint32, names []string) (*DomainScanResult, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	if len(resolvers) > dnswire.MaxProbeID {
		return nil, errTooManyResolvers(len(resolvers))
	}
	res := &DomainScanResult{
		Resolvers: resolvers,
		Names:     names,
		Answers:   make([][]TupleAnswer, len(names)),
	}
	for ni := range names {
		res.Answers[ni] = make([]TupleAnswer, len(resolvers))
		for ri := range res.Answers[ni] {
			res.Answers[ni][ri].ResolverIdx = ri
		}
	}

	// Answers are addressed by resolver index, so each response claims
	// its slot with an atomic add and the receivers for different
	// resolvers never wait on each other. One slot set serves every name
	// round.
	slots := make(answerSlots, len(resolvers))
	var tmpl []byte
	for ni, name := range names {
		// Checkpoint between name rounds: a cancelled scan keeps the
		// rows already measured and stops before the next fan-out.
		if err := ctx.Err(); err != nil {
			return res, err
		}
		// A name round's probes differ only in the resolver identifier, so
		// the round packs its query once and the builder patches that in.
		var err error
		if tmpl, err = dnswire.AppendQuery(tmpl[:0], 0, true, name, dnswire.TypeA, dnswire.ClassIN); err != nil {
			return res, fmt.Errorf("scanner: domain query for %q: %w", name, err)
		}
		row := res.Answers[ni]
		s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
			v := dnswire.GetView()
			defer dnswire.PutView(v)
			if err := v.Reset(payload); err != nil || !v.QR() || v.QDCount() == 0 {
				return
			}
			// A response to another name is late from an earlier round
			// (it outlived that round's settle); it is not this row's.
			if !v.QNameIs(name) {
				s.m.domainsUnattributed.Inc()
				return
			}
			// Recover the resolver identifier. The transaction ID
			// carries the low 16 bits; the destination port names the
			// high 9 — unless the resolver rewrote the port, in which
			// case the 0x20 casing of the echoed question supplies
			// them.
			txid := v.ID()
			portRewritten := false
			var hi uint16
			if dstPort >= basePort && dstPort < basePort+dnswire.ProbePortCount {
				hi = dstPort - basePort
			} else {
				bits, nbits := dnswire.Decode0x20Bytes(v.QName(), 9)
				if nbits < 9 {
					// Too few letters to recover; drop like the
					// paper drops unattributable responses.
					s.m.domainsUnattributed.Inc()
					return
				}
				hi = uint16(bits)
				portRewritten = true
			}
			id := dnswire.JoinProbeID(txid, hi)
			if int(id) >= len(resolvers) {
				s.m.domainsUnattributed.Inc()
				return
			}
			s.m.domainsRecv.Inc()
			ans := &row[id]
			// The answer set is materialized only for the responses that
			// are actually recorded; duplicate and late responses cost no
			// allocation.
			switch slots.claim(uint32(id)) {
			case 1:
				ans.RCode = v.RCode()
				ans.Addrs = answerSet(v)
				ans.NSOnly = len(ans.Addrs) == 0 && v.HasAuthorityNS()
				ans.PortRewritten = portRewritten
			case 2:
				ans.SecondAddrs = answerSet(v)
			}
			slots.publish(uint32(id))
		})

		// The slots are zeroed once the new receiver is installed: the
		// previous one is handed no more responses, and a late response
		// to the previous name meets this round's question check.
		for i := range slots {
			slots[i].Store(0)
		}

		// The probe payload is identical across attempts, so fault-layer
		// redraws ride on the transport's retransmission counter.
		err = s.listScan(ctx, len(resolvers), listRetries, s.m.domains,
			func(ri uint32, p *wildnet.Probe, arena []byte) []byte {
				txid, portIdx := dnswire.SplitProbeID(dnswire.ProbeID(ri))
				off := len(arena)
				arena = appendWithID(arena, tmpl, txid)
				dnswire.Encode0x20Bytes(dnswire.QueryNameWire(arena[off:]), uint32(portIdx), 9)
				p.Dst, p.SrcPort = lfsr.U32ToAddr(resolvers[ri]), basePort+portIdx
				return arena
			},
			func(ri uint32) bool { return slots.published(ri) == 0 })
		for ri := range row {
			row[ri].Responses = slots.published(uint32(ri))
		}
		if err != nil {
			return res, err
		}
	}
	return res, ctx.Err()
}

// answerSet copies a response's A answer set out of the view in one
// allocation, sized by the answer count; nil when it carries no A record.
func answerSet(v *dnswire.View) []uint32 {
	n := v.AnswerCount()
	if n == 0 {
		return nil
	}
	if addrs := v.AppendAnswerA(make([]uint32, 0, n)); len(addrs) > 0 {
		return addrs
	}
	return nil
}

type errTooManyResolvers int

func (e errTooManyResolvers) Error() string {
	return "scanner: resolver count exceeds the 25-bit probe identifier space"
}
