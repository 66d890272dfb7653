package scanner

import (
	"context"
	"fmt"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// anyPort is the UDP source port of the ANY scan's probes.
const anyPort = basePort + 1

// ANYAnswer is what one address returned to the ANY probe.
type ANYAnswer struct {
	// Size is the byte length of its largest response that was not
	// REFUSED; 0 when it sent none.
	Size int
	// Refused marks an address that rejected the query.
	Refused bool
}

// mergeANYAnswer combines two answers filed under one source address. A
// source can answer twice — duplicated on the wire, or for a mis-sourced
// sibling that replies from its address — and the senders race, so the
// kept answer must not depend on which arrived first.
func mergeANYAnswer(a, b ANYAnswer) ANYAnswer {
	return ANYAnswer{Size: max(a.Size, b.Size), Refused: a.Refused || b.Refused}
}

// ANYResult is one ANY scan over a resolver population.
type ANYResult struct {
	// RequestSize is the byte length of the one query every resolver
	// was sent.
	RequestSize int
	// Answers holds the resolvers that answered, by address.
	Answers map[uint32]ANYAnswer
}

// ScanANYContext sends one ANY query for name to every resolver and
// records the size of what comes back (the amplification survey's raw
// material). The query advertises a 4096-octet EDNS buffer, as
// amplification abuse does. Responses are attributed by source address,
// as in a snoop round. A cancelled scan returns the answers gathered so
// far plus ctx.Err(); a name that cannot be encoded sends nothing and
// returns the encoder's error.
func (s *Scanner) ScanANYContext(ctx context.Context, resolvers []uint32, name string) (*ANYResult, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	q := dnswire.NewQuery(0xA3F, name, dnswire.TypeANY, dnswire.ClassIN)
	q.AddEDNS(4096)
	wire, err := q.PackBytes()
	if err != nil {
		return nil, fmt.Errorf("scanner: ANY query for %q: %w", name, err)
	}
	collected := newShardedMap[ANYAnswer](len(resolvers) / 2)
	// want is written before the sends and only read by receivers.
	want := make(map[uint32]struct{}, len(resolvers))
	for _, u := range resolvers {
		want[u] = struct{}{}
	}
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		// The full decode, not a View: a response counts only when all of
		// it parses, which is what decides a garbled datagram's fate.
		m, err := dnswire.Unpack(payload)
		if err != nil || !m.Header.QR {
			return
		}
		u := addrU32(src)
		if _, ok := want[u]; !ok {
			return
		}
		s.m.anyRecv.Inc()
		a := ANYAnswer{Size: len(payload)}
		if m.Header.RCode == dnswire.RCodeRefused {
			a = ANYAnswer{Refused: true}
		}
		collected.Merge(u, a, mergeANYAnswer)
	})
	defer s.tr.SetReceiver(nil)
	// One probe per resolver, no retry rounds: every probe is lent the
	// scan's one query.
	err = s.listScan(ctx, len(resolvers), 0, s.m.any,
		func(i uint32, p *wildnet.Probe, arena []byte) []byte {
			p.Dst, p.SrcPort, p.Payload = lfsr.U32ToAddr(resolvers[i]), anyPort, wire
			return arena
		}, nil)
	res := &ANYResult{RequestSize: len(wire), Answers: make(map[uint32]ANYAnswer, collected.Len())}
	collected.Collect(func(u uint32, a ANYAnswer) {
		res.Answers[u] = a
	})
	return res, err
}
