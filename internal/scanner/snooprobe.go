package scanner

import (
	"context"
	"fmt"
	"slices"

	"goingwild/internal/dnswire"
)

// SnoopObs is one cache-snooping observation (§2.6): the resolver's view
// of a TLD's NS entry at probe time.
type SnoopObs struct {
	Answered bool
	// Empty marks NOERROR responses without records.
	Empty bool
	// Cached marks an NS answer being present.
	Cached bool
	// TTL is the remaining TTL of the cached entry.
	TTL uint32
}

// mergeSnoopObs keeps the lesser of two observations filed under one
// source address in a fixed total order: Cached before Empty, then the
// lower TTL. A source can answer twice in a round — for itself and for a
// mis-sourced sibling that replies from its address — and the senders
// race, so the kept observation must not depend on which arrived first.
func mergeSnoopObs(a, b SnoopObs) SnoopObs {
	if a.Cached != b.Cached {
		if a.Cached {
			return a
		}
		return b
	}
	if b.TTL < a.TTL {
		return b
	}
	return a
}

// SnoopRoundContext sends one non-recursive NS query for tld to every
// resolver and returns one observation per resolver, aligned with the
// list; Answered false means the resolver stayed silent. resolvers must be
// strictly increasing (a census's NOERROR list is): a reply's source is
// found by binary search, and any other list is refused with an error
// before anything is sent. seq is the per-round sequence number; a
// stateful resolver sees it as the transaction ID, which is how often it
// has been probed so far. Responses are attributed by source address, so
// the handful of resolvers answering from foreign addresses drop out — the
// same attrition the paper tolerates for this experiment — and a source
// with two answers keeps the mergeSnoopObs minimum. A cancelled round
// returns the observations gathered so far plus ctx.Err(); a tld that
// cannot be encoded sends nothing and returns the encoder's error.
func (s *Scanner) SnoopRoundContext(ctx context.Context, resolvers []uint32, tld string, seq uint16) ([]SnoopObs, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	if err := checkIncreasing(resolvers, "snoop resolver"); err != nil {
		return nil, err
	}
	// Every resolver gets the same bytes, so the round packs its query
	// once; RD stays clear because snooping must not trigger recursion.
	wire, err := dnswire.AppendQuery(nil, seq, false, tld, dnswire.TypeNS, dnswire.ClassIN)
	if err != nil {
		return nil, fmt.Errorf("scanner: snoop query for %q: %w", tld, err)
	}
	// Slots are addressed by list position, so a striped lock set guards
	// the merges of concurrent senders.
	out := make([]SnoopObs, len(resolvers))
	var locks stripedMutex
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		v := dnswire.GetView()
		defer dnswire.PutView(v)
		// A response to another TLD is late from an earlier round; it
		// is not this round's observation.
		if err := v.Reset(payload); err != nil || !v.QR() || v.QDCount() > 0 && !v.QNameIs(tld) {
			return
		}
		i, ok := slices.BinarySearch(resolvers, addrU32(src))
		if !ok {
			return
		}
		s.m.snoopRecv.Inc()
		obs := SnoopObs{Answered: true}
		if ttl, ok := v.FirstAnswerNS(); ok {
			obs.Cached = true
			obs.TTL = ttl
		} else {
			obs.Empty = true
		}
		mu := locks.of(uint32(i))
		mu.Lock()
		if out[i].Answered {
			obs = mergeSnoopObs(out[i], obs)
		}
		out[i] = obs
		mu.Unlock()
	})
	defer s.tr.SetReceiver(nil)
	// One probe per resolver, no retry rounds: every probe is lent the
	// round's one query.
	err = s.listScan(ctx, len(resolvers), 0, s.m.snoop,
		probeBuild{lent: wire, item: func(i uint32, arena []byte) (uint32, uint16, []byte) {
			return resolvers[i], basePort, arena
		}}, nil)
	return out, err
}
