package scanner

import (
	"context"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
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
// reverse walks every batch back to front, so the replies arrive in the
// opposite order of the sends.
type scriptTransport struct {
	answers map[uint32]snoopAnswer
	reverse bool
	recv    func(src netip.Addr, srcPort, dstPort uint16, payload []byte)
}

func (s *scriptTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	for k := range batch {
		p := batch[k]
		if s.reverse {
			p = batch[len(batch)-1-k]
		}
		a, ok := s.answers[lfsr.AddrToU32(p.Dst)]
		if !ok {
			continue
		}
		q, err := dnswire.Unpack(p.Payload)
		if err != nil {
			return 0, err
		}
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		if a.cached {
			resp.AddAnswer(q.Questions[0].Name, dnswire.ClassIN, a.ttl, dnswire.NS{Host: "ns1.nic.example"})
		}
		wire, err := resp.PackBytes()
		if err != nil {
			return 0, err
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
// worker sends [a, b] as one batch, and the transport delivers the two
// replies in send order and then reversed; the round must file the same
// observation under a either way, and b, which never answers from its own
// address, must stay silent.
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
			for _, reverse := range []bool{false, true} {
				tr := &scriptTransport{answers: map[uint32]snoopAnswer{a: c.own, b: c.sib}, reverse: reverse}
				sc := New(tr, Options{Workers: 1, SettleDelay: -1})
				round, err := sc.SnoopRoundContext(context.Background(), []uint32{a, b}, "com", 3)
				if err != nil {
					t.Fatal(err)
				}
				if got := round[0]; got != c.want {
					t.Errorf("reverse=%v: source a = %+v, want %+v", reverse, got, c.want)
				}
				if round[1] != (SnoopObs{}) {
					t.Errorf("reverse=%v: b = %+v, want silence", reverse, round[1])
				}
			}
		})
	}
}

// snoopRoundRef is the map-based form of a snoop round: a want set, a
// map merged per source under one mutex, and the answers returned keyed
// by address. It is the oracle for TestSnoopRoundMatchesMapReference.
func snoopRoundRef(ctx context.Context, s *Scanner, resolvers []uint32, tld string, seq uint16) (map[uint32]SnoopObs, error) {
	wire, err := dnswire.AppendQuery(nil, seq, false, tld, dnswire.TypeNS, dnswire.ClassIN)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	out := make(map[uint32]SnoopObs)
	want := make(map[uint32]struct{}, len(resolvers))
	for _, u := range resolvers {
		want[u] = struct{}{}
	}
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		v := dnswire.GetView()
		defer dnswire.PutView(v)
		if err := v.Reset(payload); err != nil || !v.QR() {
			return
		}
		u := addrU32(src)
		if _, ok := want[u]; !ok {
			return
		}
		obs := SnoopObs{Answered: true}
		if ttl, ok := v.FirstAnswerNS(); ok {
			obs.Cached = true
			obs.TTL = ttl
		} else {
			obs.Empty = true
		}
		mu.Lock()
		if old, dup := out[u]; dup {
			obs = mergeSnoopObs(old, obs)
		}
		out[u] = obs
		mu.Unlock()
	})
	err = s.listScan(ctx, len(resolvers), 0, senderCounters{},
		func(i uint32, p *wildnet.Probe, arena []byte) []byte {
			p.Dst, p.SrcPort, p.Payload = lfsr.U32ToAddr(resolvers[i]), basePort, wire
			return arena
		}, nil)
	mu.Lock()
	defer mu.Unlock()
	return out, err
}

// TestSnoopRoundMatchesMapReference: on the world where source 0.1.130.153
// answers for itself and for the mis-sourced 0.1.130.216 (seed 126450538,
// order 18, week 9), the slice round equals the map-based reference slot
// for slot, at one worker and at eight racing ones; and a list that is
// not strictly increasing is refused before anything is sent.
func TestSnoopRoundMatchesMapReference(t *testing.T) {
	w := misSourcedWorld(t)
	ctx := context.Background()
	for _, workers := range []int{1, 8} {
		sc, resolvers := misSourcedCensus(t, w, workers)
		for _, c := range []struct {
			tld string
			seq uint16
		}{{"com", 3}, {"de", 17}} {
			got, err := sc.SnoopRoundContext(ctx, resolvers, c.tld, c.seq)
			if err != nil {
				t.Fatal(err)
			}
			want, err := snoopRoundRef(ctx, sc, resolvers, c.tld, c.seq)
			if err != nil {
				t.Fatal(err)
			}
			answered := 0
			for i, u := range resolvers {
				if got[i] != want[u] {
					t.Errorf("workers=%d %s: slot %d (%#x) = %+v, reference %+v", workers, c.tld, i, u, got[i], want[u])
				}
				if got[i].Answered {
					answered++
				}
			}
			if answered != len(want) || answered < len(resolvers)/2 {
				t.Errorf("workers=%d %s: %d answered slots, reference %d of %d", workers, c.tld, answered, len(want), len(resolvers))
			}
		}
		var sends atomic.Int64
		counting := &inspectTransport{check: func(uint32, uint16, []byte) { sends.Add(1) }}
		refuse := New(counting, Options{Workers: workers, SettleDelay: NoSettle})
		reversed := slices.Clone(resolvers)
		slices.Reverse(reversed)
		dup := []uint32{resolvers[0], resolvers[1], resolvers[1], resolvers[2]}
		for name, list := range map[string][]uint32{"reversed": reversed, "duplicate": dup} {
			if round, err := refuse.SnoopRoundContext(ctx, list, "com", 3); err == nil || round != nil {
				t.Errorf("workers=%d: %s list gave %d slots and error %v, want a refusal", workers, name, len(round), err)
			}
		}
		if n := sends.Load(); n != 0 {
			t.Errorf("workers=%d: refused rounds sent %d probes", workers, n)
		}
	}
}

// misSourcedWorld is the order-18 world (seed 126450538) in which, at
// week 9, source 0.1.130.153 answers for itself and for the mis-sourced
// 0.1.130.216: a list scan that attributes by source files two answers in
// one slot there.
func misSourcedWorld(t *testing.T) *wildnet.World {
	t.Helper()
	wc := wildnet.DefaultConfig(18)
	wc.Seed = 126450538
	w, err := wildnet.NewWorld(wc)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// misSourcedCensus sweeps misSourcedWorld at week 9 on a new transport
// with the given senders and returns the scanner and its NOERROR list,
// which holds at least one mis-sourced resolver.
func misSourcedCensus(t *testing.T, w *wildnet.World, workers int) (*Scanner, []uint32) {
	t.Helper()
	at := wildnet.Time{Week: 9}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	t.Cleanup(func() { tr.Close() })
	sc := New(tr, Options{Workers: workers, SettleDelay: NoSettle})
	tr.SetTime(at)
	sweep, err := sc.SweepContext(context.Background(), 18, 21, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	for _, u := range resolvers {
		if p, ok := w.ProfileAt(u, at); ok && p.MisSourced {
			return sc, resolvers
		}
	}
	t.Fatal("no mis-sourced resolver in the census")
	return nil, nil
}

// snoopCensus sweeps an order-16 world at week 9 and returns its
// transport and NOERROR list, the population a snoop round walks.
func snoopCensus(tb testing.TB, workers int) (*wildnet.MemTransport, *Scanner, []uint32) {
	tb.Helper()
	w, tr := testWorld(tb, 16)
	tb.Cleanup(func() { tr.Close() })
	s := New(tr, Options{Workers: workers, SettleDelay: NoSettle})
	tr.SetTime(wildnet.Time{Week: 9})
	sweep, err := s.SweepContext(context.Background(), 16, 21, w.ScanBlacklist())
	if err != nil {
		tb.Fatal(err)
	}
	return tr, s, sweep.NOERROR()
}

// TestSnoopRoundReceiveAllocs: over an answering world, a snoop round's
// allocations do not grow with the resolver count — a reply costs a
// binary search and a slot merge, and the round allocates its slice once.
func TestSnoopRoundReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	_, s, resolvers := snoopCensus(t, 1)
	answered := 0
	round := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			obs, err := s.SnoopRoundContext(context.Background(), resolvers[:n], "com", 1)
			if err != nil {
				t.Fatal(err)
			}
			answered = 0
			for _, o := range obs {
				if o.Answered {
					answered++
				}
			}
		})
	}
	half, full := round(len(resolvers)/2), round(len(resolvers))
	if answered < len(resolvers)/2 {
		t.Fatalf("%d of %d resolvers answered; the bound is for the answered path", answered, len(resolvers))
	}
	if per := (full - half) / float64(len(resolvers)-len(resolvers)/2); per > 0.05 {
		t.Fatalf("snoop round allocates %.2f per extra resolver (%.0f for %d, %.0f for %d), want none on the receive side",
			per, half, len(resolvers)/2, full, len(resolvers))
	}
}

var sinkSnoop []SnoopObs

// BenchmarkSnoopRound runs one snoop round (one op) over an order-16
// census on one worker: send, the world's NS answer and the receive-side
// merge. ns/probe is the round's cost per resolver.
func BenchmarkSnoopRound(b *testing.B) {
	_, s, resolvers := snoopCensus(b, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkSnoop, err = s.SnoopRoundContext(ctx, resolvers, "com", uint16(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(resolvers)), "ns/probe")
	b.ReportMetric(float64(len(resolvers)), "resolvers")
}
