package scanner

import (
	"net/netip"
	"sync"

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
// TCP fallback happened.
func (s *Scanner) ProbeTC(addr uint32, name string, typ dnswire.Type, class dnswire.Class) ([]*dnswire.Message, bool) {
	if s.tr == nil {
		return nil, false
	}
	// The same query goes out again over TCP after a truncated answer.
	wire, err := dnswire.AppendQuery(nil, 0x7C17, true, name, typ, class)
	if err != nil {
		return nil, false
	}
	var mu sync.Mutex
	var out []*dnswire.Message
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.Header.QR {
			s.m.tcpRecv.Inc()
			mu.Lock()
			out = append(out, m)
			mu.Unlock()
		}
	})
	s.m.tcpSent.Inc()
	//lint:allow errdrop TC-probe send failures are modeled packet loss
	s.tr.Send(bgCtx, lfsr.U32ToAddr(addr), 53, basePort, wire)
	s.settle(bgCtx)

	mu.Lock()
	defer mu.Unlock()
	truncated := false
	for _, m := range out {
		if m.Header.TC {
			truncated = true
		}
	}
	if !truncated {
		return out, false
	}
	tq, ok := s.tr.(TCPQuerier)
	if !ok {
		return out, false
	}
	resp, ok := tq.QueryTCP(lfsr.U32ToAddr(addr), wire)
	if !ok {
		return out, false
	}
	m, err := dnswire.Unpack(resp)
	if err != nil {
		return out, false
	}
	// Replace truncated answers with the full TCP response.
	final := make([]*dnswire.Message, 0, len(out))
	for _, prev := range out {
		if !prev.Header.TC {
			final = append(final, prev)
		}
	}
	final = append(final, m)
	return final, true
}
