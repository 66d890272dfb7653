package scanner

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"goingwild/internal/domains"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// lateReplayTransport wraps a transport and models a response that
// outlives its round's settle: it remembers the last response delivered
// to each receiver and, once the scan has installed the next round's
// receiver, hands that response to it before the round's first batch.
type lateReplayTransport struct {
	inner Transport

	mu       sync.Mutex
	recv     func(src netip4, srcPort, dstPort uint16, payload []byte)
	last     lateResponse
	pending  bool
	replayed int
}

type lateResponse struct {
	src              netip4
	srcPort, dstPort uint16
	payload          []byte
}

func (l *lateReplayTransport) SetReceiver(f func(src netip4, srcPort, dstPort uint16, payload []byte)) {
	l.mu.Lock()
	l.recv, l.pending = f, l.last.payload != nil
	l.mu.Unlock()
	l.inner.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		l.mu.Lock()
		l.last = lateResponse{src, srcPort, dstPort, append([]byte(nil), payload...)}
		l.mu.Unlock()
		f(src, srcPort, dstPort, payload)
	})
}

func (l *lateReplayTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	l.mu.Lock()
	late, f, replay := l.last, l.recv, l.pending
	l.pending = false
	if replay {
		l.replayed++
	}
	l.mu.Unlock()
	if replay {
		f(late.src, late.srcPort, late.dstPort, late.payload)
	}
	return l.inner.SendBatch(ctx, batch)
}

func (l *lateReplayTransport) Close() error { return l.inner.Close() }

// TestListScansDropLateResponses: a response to the previous round's
// question that arrives in the next round — the previous name, the other
// version.* pass, the previous TLD — is not the next round's answer. With
// one replayed into the start of every round after the first, each scan
// returns what it returns without the replays, and the domain scan counts
// every replay as unattributed.
func TestListScansDropLateResponses(t *testing.T) {
	ctx := context.Background()
	scan := func(t *testing.T, late bool) (*DomainScanResult, *ChaosResult, [][]SnoopObs, *metrics.Registry, *lateReplayTransport) {
		w, mem := testWorld(t, 16)
		t.Cleanup(func() { mem.Close() })
		mem.SetTime(wildnet.At(9))
		census, err := New(mem, Options{Workers: 1, SettleDelay: NoSettle}).SweepContext(ctx, 16, 21, w.ScanBlacklist())
		if err != nil {
			t.Fatal(err)
		}
		resolvers := census.NOERROR()[:200]
		var tr Transport = mem
		var lr *lateReplayTransport
		if late {
			lr = &lateReplayTransport{inner: mem}
			tr = lr
		}
		reg := metrics.New()
		s := New(tr, Options{Workers: 1, SettleDelay: NoSettle, Metrics: reg})
		dom, err := s.ScanDomainsContext(ctx, resolvers, []string{"chase.com", "paypal.com", "facebook.com"})
		if err != nil {
			t.Fatal(err)
		}
		chaos, err := s.ScanChaosContext(ctx, resolvers)
		if err != nil {
			t.Fatal(err)
		}
		var snoop [][]SnoopObs
		for _, tld := range []string{"com", "de", "org"} {
			obs, err := s.SnoopRoundContext(ctx, resolvers, tld, 1)
			if err != nil {
				t.Fatal(err)
			}
			snoop = append(snoop, obs)
		}
		return dom, chaos, snoop, reg, lr
	}
	wantDom, wantChaos, wantSnoop, wantReg, _ := scan(t, false)
	gotDom, gotChaos, gotSnoop, gotReg, lr := scan(t, true)

	// Every round but the scans' first starts behind an earlier one: two
	// domain rounds, both CHAOS passes (the first behind the last domain
	// round) and the three snoop rounds.
	if lr.replayed != 7 {
		t.Fatalf("%d late responses replayed, want 7", lr.replayed)
	}
	if !reflect.DeepEqual(gotDom.Answers, wantDom.Answers) {
		for ni := range gotDom.Answers {
			for ri := range gotDom.Answers[ni] {
				if g, w := gotDom.Answers[ni][ri], wantDom.Answers[ni][ri]; !reflect.DeepEqual(g, w) {
					t.Errorf("domain %s, resolver %d: with a late response %+v, without %+v", gotDom.Names[ni], ri, g, w)
				}
			}
		}
	}
	if !reflect.DeepEqual(gotChaos.Answers, wantChaos.Answers) {
		t.Error("a late version.bind response changed the version.server pass")
	}
	if !reflect.DeepEqual(gotSnoop, wantSnoop) {
		t.Error("a late response to the previous TLD changed a snoop round")
	}
	// A dropped response is not received: a late one that a later
	// genuine answer overwrites still shows here.
	got, want := gotReg.Snapshot(), wantReg.Snapshot()
	for _, c := range []string{"scanner.domains.recv", "scanner.chaos.recv", "scanner.snoop.recv"} {
		if g, w := got.Counter(c), want.Counter(c); g != w {
			t.Errorf("%s = %d with late responses, %d without", c, g, w)
		}
	}
	const c = "scanner.domains.unattributed"
	if g, w := got.Counter(c), want.Counter(c)+2; g != w {
		t.Errorf("%s = %d with two late responses, want %d", c, g, w)
	}
}

var sinkDomains *DomainScanResult

// BenchmarkDomainRound runs one domain-scan name round (one op) over an
// order-16 census's NOERROR resolvers on one worker: send, the world's A
// answer and the receive side. Successive ops walk the scan list, so the
// mix of CDN, signed, NXDOMAIN and ordinary names is the domain scan's.
// ns/tuple and allocs/tuple are the round's cost per resolver.
func BenchmarkDomainRound(b *testing.B) {
	_, s, resolvers := snoopCensus(b, 1)
	ctx := context.Background()
	names := domains.Names()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkDomains, err = s.ScanDomainsContext(ctx, resolvers, names[i%len(names):i%len(names)+1]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	tuples := float64(b.N) * float64(len(resolvers))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/tuples, "allocs/tuple")
	b.ReportMetric(float64(len(resolvers)), "resolvers")
}
