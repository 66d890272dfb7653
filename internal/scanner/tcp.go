package scanner

import (
	"context"
	"net/netip"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
)

// TCPQuerier is implemented by transports that can carry DNS over TCP
// (RFC 1035 §4.2.2). The scanner retries over TCP when a UDP response
// arrives with the TC bit set.
type TCPQuerier interface {
	QueryTCP(dst netip.Addr, payload []byte) ([]byte, bool)
}

// ProbeTC sends one UDP query and, when the response is truncated and the
// transport supports TCP, retries the exchange over TCP. It returns the
// final responses (TCP replacing the truncated UDP answer) and whether a
// TCP fallback happened; a failed UDP exchange is returned as ProbeContext
// would.
func (s *Scanner) ProbeTC(ctx context.Context, addr uint32, name string, typ dnswire.Type, class dnswire.Class) ([]*dnswire.Message, bool, error) {
	// The same query goes out again over TCP after a truncated answer.
	wire, out, err := s.exchange(ctx, addr, 0x7C17, name, typ, class, s.m.tcpSent, s.m.tcpRecv)
	if err != nil {
		return out, false, err
	}
	truncated := false
	for _, m := range out {
		if m.Header.TC {
			truncated = true
		}
	}
	if !truncated {
		return out, false, nil
	}
	tq, ok := s.tr.(TCPQuerier)
	if !ok {
		return out, false, nil
	}
	resp, ok := tq.QueryTCP(lfsr.U32ToAddr(addr), wire)
	if !ok {
		return out, false, nil
	}
	m, err := dnswire.Unpack(resp)
	if err != nil {
		return out, false, nil
	}
	// Replace truncated answers with the full TCP response.
	final := make([]*dnswire.Message, 0, len(out))
	for _, prev := range out {
		if !prev.Header.TC {
			final = append(final, prev)
		}
	}
	final = append(final, m)
	return final, true, nil
}
