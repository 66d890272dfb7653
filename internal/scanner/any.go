package scanner

import (
	"context"
	"fmt"
	"slices"

	"goingwild/internal/dnswire"
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
// kept answer must not depend on which arrived first. The zero answer
// (silence) merges to the other one.
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
// as in a snoop round, and resolvers must be strictly increasing for the
// same reason: a source is found at its list position by binary search,
// and any other list is refused with an error before anything is sent. A
// cancelled scan returns the answers gathered so far plus ctx.Err(); a
// name that cannot be encoded sends nothing and returns the encoder's
// error.
func (s *Scanner) ScanANYContext(ctx context.Context, resolvers []uint32, name string) (*ANYResult, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	if err := checkIncreasing(resolvers, "ANY resolver"); err != nil {
		return nil, err
	}
	wire, err := dnswire.AppendQuery(nil, 0xA3F, true, name, dnswire.TypeANY, dnswire.ClassIN)
	if err != nil {
		return nil, fmt.Errorf("scanner: ANY query for %q: %w", name, err)
	}
	wire = dnswire.AppendEDNS(wire, 4096)
	// Answers are filed at the source's list position, so a striped lock
	// set guards the merges of concurrent senders. A response is never
	// empty, so a slot left zero is a silent resolver.
	answers := make([]ANYAnswer, len(resolvers))
	var locks stripedMutex
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		// The full rule, not Reset alone: a response counts only when all
		// of it decodes, which is what decides a garbled datagram's fate.
		v := dnswire.GetView()
		defer dnswire.PutView(v)
		if v.Reset(payload) != nil || v.Validate() != nil || !v.QR() {
			return
		}
		i, ok := slices.BinarySearch(resolvers, addrU32(src))
		if !ok {
			return
		}
		s.m.anyRecv.Inc()
		a := ANYAnswer{Size: len(payload)}
		if v.RCode() == dnswire.RCodeRefused {
			a = ANYAnswer{Refused: true}
		}
		mu := locks.of(uint32(i))
		mu.Lock()
		answers[i] = mergeANYAnswer(answers[i], a)
		mu.Unlock()
	})
	defer s.tr.SetReceiver(nil)
	// One probe per resolver, no retry rounds: every probe is lent the
	// scan's one query.
	err = s.listScan(ctx, len(resolvers), 0, s.m.any,
		probeBuild{lent: wire, item: func(i uint32, arena []byte) (uint32, uint16, []byte) {
			return resolvers[i], anyPort, arena
		}}, nil)
	// A late response may still be merging: read each slot under its lock.
	res := &ANYResult{RequestSize: len(wire), Answers: make(map[uint32]ANYAnswer, len(resolvers))}
	for i, u := range resolvers {
		mu := locks.of(uint32(i))
		mu.Lock()
		if a := answers[i]; a != (ANYAnswer{}) {
			res.Answers[u] = a
		}
		mu.Unlock()
	}
	return res, err
}
