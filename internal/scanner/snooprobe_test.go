package scanner

import (
	"context"
	"net/netip"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// snoopAnswer is one scripted reply of scriptTransport: the source it
// arrives from and the NS TTL it carries (cached false: an empty NOERROR).
type snoopAnswer struct {
	src    uint32
	cached bool
	ttl    uint32
}

// scriptTransport answers each probe synchronously inside SendBatch, as the
// in-memory transport does, with the reply scripted for its destination.
type scriptTransport struct {
	answers map[uint32]snoopAnswer
	recv    func(src netip.Addr, srcPort, dstPort uint16, payload []byte)
}

func (s *scriptTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	for i, p := range batch {
		a, ok := s.answers[lfsr.AddrToU32(p.Dst)]
		if !ok {
			continue
		}
		q, err := dnswire.Unpack(p.Payload)
		if err != nil {
			return i, err
		}
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		if a.cached {
			resp.AddAnswer(q.Questions[0].Name, dnswire.ClassIN, a.ttl, dnswire.NS{Host: "ns1.nic.example"})
		}
		wire, err := resp.PackBytes()
		if err != nil {
			return i, err
		}
		s.recv(lfsr.U32ToAddr(a.src), p.DstPort, p.SrcPort, wire)
	}
	return len(batch), nil
}

func (s *scriptTransport) SetReceiver(f func(src netip.Addr, srcPort, dstPort uint16, payload []byte)) {
	s.recv = f
}

func (s *scriptTransport) Close() error { return nil }

// TestSnoopRoundCommutesOverDeliveryOrder: resolver b is mis-sourced and
// answers from a's address, so a is answered for twice in one round. One
// worker walking [a, b] and then [b, a] delivers the pair in both orders;
// the round must file the same observation under a either way, and b,
// which never answers from its own address, must drop out.
func TestSnoopRoundCommutesOverDeliveryOrder(t *testing.T) {
	const a, b = uint32(0x0A000001), uint32(0x0A000002)
	cases := []struct {
		name     string
		own, sib snoopAnswer
		want     SnoopObs
	}{
		{"cached beats empty",
			snoopAnswer{src: a}, snoopAnswer{src: a, cached: true, ttl: 900},
			SnoopObs{Answered: true, Cached: true, TTL: 900}},
		{"lower ttl wins",
			snoopAnswer{src: a, cached: true, ttl: 700}, snoopAnswer{src: a, cached: true, ttl: 300},
			SnoopObs{Answered: true, Cached: true, TTL: 300}},
		{"equal answers",
			snoopAnswer{src: a}, snoopAnswer{src: a},
			SnoopObs{Answered: true, Empty: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &scriptTransport{answers: map[uint32]snoopAnswer{a: c.own, b: c.sib}}
			sc := New(tr, Options{Workers: 1, SettleDelay: -1})
			for _, resolvers := range [][]uint32{{a, b}, {b, a}} {
				round, err := sc.SnoopRoundContext(context.Background(), resolvers, "com", 3)
				if err != nil {
					t.Fatal(err)
				}
				if got := round[a]; got != c.want {
					t.Errorf("send order %#x: source a = %+v, want %+v", resolvers, got, c.want)
				}
				if _, ok := round[b]; ok || len(round) != 1 {
					t.Errorf("send order %#x: round = %+v, want only source a", resolvers, round)
				}
			}
		})
	}
}
