package scanner

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// ProbeAliveContext re-probes an explicit address list (the §2.5 churn
// study tracks the week-0 cohort this way) and returns the set that
// responded with any DNS answer. addrs must be strictly increasing (a
// census's responder list is): a response's target is found at its list
// position by binary search, and any other list is refused with an error
// before anything is sent. Cancellation checkpoints sit between retry
// rounds; a cancelled probe returns the partial alive set with ctx.Err().
func (s *Scanner) ProbeAliveContext(ctx context.Context, addrs []uint32) (map[uint32]bool, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	if err := checkIncreasing(addrs, "alive address"); err != nil {
		return nil, err
	}
	base := dnswire.CanonicalName(domains.ScanBase)
	baseWire, err := dnswire.EncodeNameWire(base)
	if err != nil {
		return nil, err
	}
	// One claim bit per list position: the first response files its
	// target, and the retry rounds' miss check reads the bit.
	answered := newClaimBits(uint64(len(addrs)))
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		v := dnswire.GetView()
		defer dnswire.PutView(v)
		if err := v.Reset(payload); err != nil || !v.QR() || v.QDCount() == 0 {
			return
		}
		target, ok := dnswire.DecodeTargetQNameU32(v.QName(), base)
		if !ok {
			return
		}
		i, ok := slices.BinarySearch(addrs, target)
		if !ok {
			return
		}
		s.m.aliveRecv.Inc()
		answered.claim(uint32(i))
	})
	defer s.tr.SetReceiver(nil)
	err = s.listScan(ctx, len(addrs), listRetries, s.m.alive, aliveBuild(addrs, baseWire),
		func(i uint32) bool { return !answered.has(i) })
	alive := make(map[uint32]bool, len(addrs))
	for i, u := range addrs {
		if answered.has(uint32(i)) {
			alive[u] = true
		}
	}
	return alive, err
}

// aliveBuild returns ProbeAliveContext's builder for item i of addrs. The
// probe asks for c<hex of the low 12 bits>.<hex-ip>.<scan base>:
// identical bytes on every attempt, so fault-layer redraws ride on the
// transport's retransmission counter.
func aliveBuild(addrs []uint32, baseWire []byte) probeBuild {
	return func(i uint32, p *wildnet.Probe, arena []byte) []byte {
		u := addrs[i]
		prefix := [4]byte{'c'}
		p.Dst, p.SrcPort = lfsr.U32ToAddr(u), basePort
		return dnswire.AppendTargetQuery(arena, uint16(u), strconv.AppendUint(prefix[:1], uint64(u&0xFFF), 16),
			u, baseWire, dnswire.TypeA, dnswire.ClassIN)
	}
}

// LookupPTR resolves the reverse name of target through the resolver at
// via (the churn study aggregates rDNS records of disappeared cohort
// members through the trusted resolvers, §2.5). ok is false when no PTR
// answer came back; an exchange that failed as ProbeContext's can —
// a dead context above all — is an error, not a missing record.
func (s *Scanner) LookupPTR(ctx context.Context, via, target uint32) (name string, ok bool, err error) {
	msgs, err := s.ProbeContext(ctx, via, fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa",
		target&0xFF, target>>8&0xFF, target>>16&0xFF, target>>24), dnswire.TypePTR, dnswire.ClassIN)
	if err != nil {
		return "", false, err
	}
	for _, m := range msgs {
		for _, rr := range m.Answers {
			if ptr, ok := rr.Data.(dnswire.PTR); ok {
				return ptr.Target, true, nil
			}
		}
	}
	return "", false, nil
}

// LookupA resolves an A record through the resolver at via, returning the
// answer addresses (used by the prefilter's rDNS round-trip rule). ok is
// false when nothing answered; a failed exchange is an error, as in
// LookupPTR.
func (s *Scanner) LookupA(ctx context.Context, via uint32, name string) (addrs []uint32, rcode dnswire.RCode, ok bool, err error) {
	msgs, err := s.ProbeContext(ctx, via, name, dnswire.TypeA, dnswire.ClassIN)
	if err != nil || len(msgs) == 0 {
		return nil, 0, false, err
	}
	answer := msgs[0].AnswerAddrs()
	addrs = make([]uint32, len(answer))
	for i, a := range answer {
		addrs[i] = lfsr.AddrToU32(a)
	}
	return addrs, msgs[0].Header.RCode, true, nil
}
