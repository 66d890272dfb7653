package scanner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// TupleAnswer is the outcome of one (domain, resolver) probe — the raw
// material of the (domain ∘ ip ∘ resolver) tuples of §3. Its resolver is
// its column in DomainScanResult.Answers.
type TupleAnswer struct {
	// Addrs is the A answer set (nil for empty answer sections).
	Addrs []uint32
	// SecondAddrs is the answer set of a second, later response.
	SecondAddrs []uint32
	// Responses counts how many responses arrived for the probe;
	// values above 1 betray injected answers racing the legitimate one
	// (the Great Firewall signature, §4.2).
	Responses int
	RCode     dnswire.RCode
	// NSOnly marks responses carrying only authority NS records.
	NSOnly bool
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
// response's destination port. The echoed question names the row.
//
// The scan is one engine pass over every (name, resolver) tuple, item
// ni·len(resolvers)+ri, each name a row that no pull crosses; its retry
// round re-probes the silent tuples of every name at once.
//
// A name that cannot be encoded, or that repeats another under DNS case
// folding, fails the scan before any probe is sent. Cancellation
// checkpoints sit between send batches and between rounds; a cancelled
// scan returns the partially filled result together with ctx.Err().
func (s *Scanner) ScanDomainsContext(ctx context.Context, resolvers []uint32, names []string) (*DomainScanResult, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	if len(resolvers) > dnswire.MaxProbeID {
		return nil, errTooManyResolvers(len(resolvers))
	}
	nr := uint32(len(resolvers))
	if uint64(len(names))*uint64(nr) > math.MaxUint32 {
		return nil, errors.New("scanner: domain scan exceeds 2^32 (name, resolver) tuples")
	}
	// A name's probes differ only in the resolver identifier, so each
	// name's query is packed once and the builder patches that in.
	tmpls := make([][]byte, len(names))
	rowOf := make(map[string]uint32, len(names))
	for ni, name := range names {
		var err error
		if tmpls[ni], err = dnswire.AppendQuery(nil, 0, true, name, dnswire.TypeA, dnswire.ClassIN); err != nil {
			return nil, fmt.Errorf("scanner: domain query for %q: %w", name, err)
		}
		key := string(foldName(nil, []byte(strings.TrimSuffix(name, "."))))
		if _, dup := rowOf[key]; dup {
			return nil, fmt.Errorf("scanner: domain %q scanned twice", name)
		}
		rowOf[key] = uint32(ni)
	}

	res := &DomainScanResult{
		Resolvers: resolvers,
		Names:     names,
		Answers:   make([][]TupleAnswer, len(names)),
	}
	// A row is an allocation of its own: one block of every row would
	// need a contiguous span per scan, which the heap leaves fragmented
	// behind the previous scan's.
	rows := res.Answers
	for ni := range rows {
		rows[ni] = make([]TupleAnswer, len(resolvers))
	}

	// Answers are addressed by tuple, so each response claims its slot
	// with an atomic add and the receivers for different tuples never
	// wait on each other.
	slots := make(answerSlots, len(names)*len(resolvers))
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		v := dnswire.GetView()
		defer dnswire.PutView(v)
		if err := v.Reset(payload); err != nil || !v.QR() || v.QDCount() == 0 {
			return
		}
		// The echoed question names the row; a response to a name
		// outside the set (late from an earlier scan) is no row's.
		var buf [maxFoldedName]byte
		ni, ok := rowOf[string(foldName(buf[:0], v.QName()))]
		if !ok {
			s.m.domainsUnattributed.Inc()
			return
		}
		// Recover the resolver identifier. The transaction ID carries
		// the low 16 bits; the destination port names the high 9 —
		// unless the resolver rewrote the port, in which case the 0x20
		// casing of the echoed question supplies them.
		txid := v.ID()
		portRewritten := false
		var hi uint16
		if dstPort >= basePort && dstPort < basePort+dnswire.ProbePortCount {
			hi = dstPort - basePort
		} else {
			bits, nbits := dnswire.Decode0x20Bytes(v.QName(), 9)
			if nbits < 9 {
				// Too few letters to recover; drop like the paper
				// drops unattributable responses.
				s.m.domainsUnattributed.Inc()
				return
			}
			hi = uint16(bits)
			portRewritten = true
		}
		id := dnswire.JoinProbeID(txid, hi)
		if uint32(id) >= nr {
			s.m.domainsUnattributed.Inc()
			return
		}
		s.m.domainsRecv.Inc()
		u := ni*nr + uint32(id)
		ans := &rows[ni][id]
		// The answer set is materialized only for the responses that are
		// actually recorded; duplicate and late responses cost no
		// allocation.
		switch slots.claim(u) {
		case 1:
			ans.RCode = v.RCode()
			ans.Addrs = answerSet(v)
			ans.NSOnly = len(ans.Addrs) == 0 && v.HasAuthorityNS()
			ans.PortRewritten = portRewritten
		case 2:
			ans.SecondAddrs = answerSet(v)
		}
		slots.publish(u)
	})
	// The transport holds the receiver, and through it the result, until
	// it is replaced; a returned scan leaves nothing behind.
	defer s.tr.SetReceiver(nil)

	// The probe payload is identical across attempts, so fault-layer
	// redraws ride on the transport's retransmission counter.
	build := func(u uint32, p *wildnet.Probe, arena []byte) []byte {
		ni, ri := u/nr, u%nr
		txid, portIdx := dnswire.SplitProbeID(dnswire.ProbeID(ri))
		off := len(arena)
		arena = appendWithID(arena, tmpls[ni], txid)
		dnswire.Encode0x20Bytes(dnswire.QueryNameWire(arena[off:]), uint32(portIdx), 9)
		p.Dst, p.SrcPort = lfsr.U32ToAddr(resolvers[ri]), basePort+portIdx
		return arena
	}
	err := s.run(ctx, &scanRun{
		src:    &listSource{n: uint32(len(slots)), row: nr},
		chunk:  listPull(len(resolvers)),
		rounds: listRetries,
		build:  func(int) probeBuild { return build },
		miss:   func(u uint32) bool { return slots.published(u) == 0 },
		ctr:    s.m.domains,
	})
	for ni, row := range rows {
		for ri := range row {
			row[ri].Responses = slots.published(uint32(ni)*nr + uint32(ri))
		}
	}
	return res, err
}

// maxFoldedName bounds the question names a domain scan looks up: a name
// the encoder accepts spells at most 253 characters.
const maxFoldedName = 256

// foldName appends name to dst with its ASCII letters lower-cased — the
// DNS case folding QNameIs applies. A name longer than maxFoldedName is
// cut there, so it matches no scanned name and fits a maxFoldedName
// buffer.
//
//lint:hotpath per-response row lookup on the domain scan's receive path
func foldName(dst, name []byte) []byte {
	for _, c := range name[:min(len(name), maxFoldedName)] {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
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
