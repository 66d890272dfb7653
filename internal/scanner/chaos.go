package scanner

import (
	"context"
	"fmt"

	"goingwild/internal/dnswire"
)

// ChaosAnswer is one resolver's pair of CHAOS version responses (§2.4).
type ChaosAnswer struct {
	// BindText and ServerText are the TXT payloads of version.bind and
	// version.server; empty when the query errored or went unanswered.
	BindText   string
	ServerText string
	// BindRCode / ServerRCode are the response codes (NoError with
	// empty text means an empty version).
	BindRCode   dnswire.RCode
	ServerRCode dnswire.RCode
	// BindAnswered / ServerAnswered distinguish silence from answers.
	BindAnswered   bool
	ServerAnswered bool
}

// ChaosResult is one CHAOS scan over a resolver population.
type ChaosResult struct {
	Resolvers []uint32
	Answers   []ChaosAnswer
}

// Responded counts resolvers that answered at least one version query.
func (c *ChaosResult) Responded() int {
	n := 0
	for i := range c.Answers {
		if c.Answers[i].BindAnswered || c.Answers[i].ServerAnswered {
			n++
		}
	}
	return n
}

// ScanChaosContext issues version.bind and version.server CHAOS TXT
// queries to every resolver. The probe identifier rides in the
// transaction ID (CHAOS scans target an enumerated list, so 16+1 bits
// suffice: the queried name distinguishes the two probes per resolver).
// Cancellation checkpoints sit between transaction-ID chunks; a
// cancelled scan returns the partially filled result with ctx.Err().
func (s *Scanner) ScanChaosContext(ctx context.Context, resolvers []uint32) (*ChaosResult, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	res := &ChaosResult{
		Resolvers: resolvers,
		Answers:   make([]ChaosAnswer, len(resolvers)),
	}
	// Answer slots are addressed by resolver index, so a striped lock set
	// replaces the single scan-wide mutex.
	var locks stripedMutex
	defer s.tr.SetReceiver(nil)
	for pass, qname := range []string{"version.bind", "version.server"} {
		isBind := pass == 0
		// Every probe of a pass asks the same question; only the ID moves.
		tmpl, err := dnswire.AppendQuery(nil, 0, true, qname, dnswire.TypeTXT, dnswire.ClassCH)
		if err != nil {
			return res, fmt.Errorf("scanner: CHAOS query for %q: %w", qname, err)
		}
		// Identify resolvers by transaction id chunks of 64k.
		chunks := (len(resolvers) + 0xFFFF) / 0x10000
		for chunk := 0; chunk < chunks; chunk++ {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			lo := chunk * 0x10000
			hi := lo + 0x10000
			if hi > len(resolvers) {
				hi = len(resolvers)
			}
			batch := resolvers[lo:hi]
			s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
				v := dnswire.GetView()
				defer dnswire.PutView(v)
				// A response to the other version name is late from
				// the other pass; it is not this pass's answer.
				if err := v.Reset(payload); err != nil || !v.QR() || v.QDCount() > 0 && !v.QNameIs(qname) {
					return
				}
				idx := lo + int(v.ID())
				if idx >= hi {
					return
				}
				s.m.chaosRecv.Inc()
				text := string(v.AppendAnswerTXT(nil))
				mu := locks.of(uint32(idx))
				mu.Lock()
				a := &res.Answers[idx]
				if isBind {
					a.BindAnswered = true
					a.BindRCode = v.RCode()
					a.BindText = text
				} else {
					a.ServerAnswered = true
					a.ServerRCode = v.RCode()
					a.ServerText = text
				}
				mu.Unlock()
			})
			// The version census sends once per (resolver, name) — no
			// retry rounds — so Table 3 keeps its single-probe response
			// rates.
			if err := s.listScan(ctx, len(batch), 0, s.m.chaos,
				probeBuild{item: func(i uint32, arena []byte) (uint32, uint16, []byte) {
					return batch[i], basePort, appendWithID(arena, tmpl, uint16(i))
				}}, nil); err != nil {
				return res, err
			}
		}
	}
	return res, ctx.Err()
}
