package scanner

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"goingwild/internal/domains"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// lateReplayTransport wraps a transport and models a response that
// outlives its round's settle: it remembers the last response delivered
// to each receiver and, once the scan has installed the next round's
// receiver, hands that response to it before the round's first batch. A
// nil receiver (a scan returning) is passed through.
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
	if f == nil {
		l.inner.SetReceiver(nil)
		return
	}
	l.inner.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		l.mu.Lock()
		l.last = lateResponse{src, srcPort, dstPort, append([]byte(nil), payload...)}
		l.mu.Unlock()
		f(src, srcPort, dstPort, payload)
	})
}

func (l *lateReplayTransport) Send(ctx context.Context, b *wildnet.Batch) (int, error) {
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
	return l.inner.Send(ctx, b)
}

func (l *lateReplayTransport) Close() error { return l.inner.Close() }

// TestListScansDropLateResponses: a response to an earlier question that
// arrives in a later round — a name outside the domain scan's set, the
// other version.* pass, the previous TLD — is not the later round's
// answer. With one replayed into the start of every round after the
// first, each scan returns what it returns without the replays, and the
// domain scan counts its replay as unattributed.
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
		// The scan before the domain scan asks for a name outside its
		// set.
		if _, err := s.ScanDomainsContext(ctx, resolvers, []string{"qq.com"}); err != nil {
			t.Fatal(err)
		}
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

	// Every round but the first starts behind an earlier one: the domain
	// scan (behind the qq.com scan), both CHAOS passes (the first behind
	// the domain scan) and the three snoop rounds. The domain scan is one
	// pass over all its names, so no name round starts behind another.
	if lr.replayed != 6 {
		t.Fatalf("%d late responses replayed, want 6", lr.replayed)
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
	if g, w := got.Counter(c), want.Counter(c)+1; g != w {
		t.Errorf("%s = %d with one late response, want %d", c, g, w)
	}
}

// TestDomainScanRowsMatchOneNameScans: the domain scan is one pass over
// every (name, resolver) tuple, with one retry round for all names. Row
// ni of it must equal a scan of names[ni] alone — the scan the engine ran
// per name before — with and without faults. Each scan starts at the same
// instant (SetTime resets the transport's attempt counter), so every
// probe draws the fate it draws in the one-name scan; four workers
// interleave the rows' pulls.
func TestDomainScanRowsMatchOneNameScans(t *testing.T) {
	ctx := context.Background()
	names := domains.Names()
	// "clean" is the zero fault configuration: no profile at all.
	for _, profile := range []string{"clean", "hostile"} {
		t.Run(profile, func(t *testing.T) {
			w, mem := chaosWorld(t, 16, profile)
			t.Cleanup(func() { mem.Close() })
			s := New(mem, Options{Workers: 4, SettleDelay: NoSettle})
			at := wildnet.At(9)
			mem.SetTime(at)
			census, err := s.SweepContext(ctx, 16, 21, w.ScanBlacklist())
			if err != nil {
				t.Fatal(err)
			}
			resolvers := census.NOERROR()
			mem.SetTime(at)
			all, err := s.ScanDomainsContext(ctx, resolvers, names)
			if err != nil {
				t.Fatal(err)
			}
			answered := 0
			for ni, name := range names {
				mem.SetTime(at)
				one, err := s.ScanDomainsContext(ctx, resolvers, names[ni:ni+1])
				if err != nil {
					t.Fatal(err)
				}
				for ri := range resolvers {
					if g, w := all.Answers[ni][ri], one.Answers[0][ri]; !reflect.DeepEqual(g, w) {
						t.Errorf("%s at resolver %d: all names %+v, alone %+v", name, ri, g, w)
					}
					if one.Answers[0][ri].Answered() {
						answered++
					}
				}
			}
			if answered < len(names)*len(resolvers)/2 {
				t.Errorf("only %d of %d tuples answered", answered, len(names)*len(resolvers))
			}
		})
	}
}

// heldTransport hands the inner transport each receiver through an
// allocation of its own whose collection closes freed, so a test can see
// whether the transport still holds what the last scan installed — and,
// through it, that scan's collector.
type heldTransport struct {
	Transport
	freed chan struct{}
}

type heldReceiver struct {
	f func(src netip4, srcPort, dstPort uint16, payload []byte)
}

func (h *heldTransport) SetReceiver(f func(src netip4, srcPort, dstPort uint16, payload []byte)) {
	if f == nil {
		h.Transport.SetReceiver(nil)
		return
	}
	r := &heldReceiver{f}
	freed := make(chan struct{})
	h.freed = freed
	runtime.SetFinalizer(r, func(*heldReceiver) { close(freed) })
	h.Transport.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		r.f(src, srcPort, dstPort, payload)
	})
}

// awaitCollected runs the collector until freed is closed.
func awaitCollected(t *testing.T, what string, freed <-chan struct{}) {
	t.Helper()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Errorf("%s is still reachable from the transport after the scan returned", what)
}

// TestReturnedScansLeaveNothingOnTheTransport: a scan's receiver binds its
// collector — the sweep's sharded map, the domain scan's rows — and the
// transport holds the receiver until the next SetReceiver. Every scan
// uninstalls it on return, so while the Scanner and its transport live, a
// returned sweep's collector and a domain result the caller dropped are
// garbage.
func TestReturnedScansLeaveNothingOnTheTransport(t *testing.T) {
	ctx := context.Background()
	w, mem := testWorld(t, 14)
	t.Cleanup(func() { mem.Close() })
	tr := &heldTransport{Transport: mem}
	s := New(tr, Options{Workers: 2, SettleDelay: NoSettle})
	census, err := s.SweepContext(ctx, 14, 1, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	awaitCollected(t, "the sweep's receiver", tr.freed)

	res, err := s.ScanDomainsContext(ctx, census.NOERROR(), []string{"chase.com", "qq.com"})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(chan struct{})
	runtime.SetFinalizer(&res.Answers[0][0], func(*TupleAnswer) { close(rows) })
	res = nil
	awaitCollected(t, "the domain scan's receiver", tr.freed)
	awaitCollected(t, "the domain scan's result", rows)
	runtime.KeepAlive(s)
}

// TestTupleAnswerIs64Bytes: a domain scan holds one TupleAnswer per
// (name, resolver) tuple, a quarter of a million at order 18, so its
// layout is part of the scan's memory cost.
func TestTupleAnswerIs64Bytes(t *testing.T) {
	if size := reflect.TypeOf(TupleAnswer{}).Size(); size != 64 {
		t.Errorf("TupleAnswer is %d bytes, want 64", size)
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

// BenchmarkDomainScan runs the whole domain scan (one op) — every name of
// the scan list over an order-16 census's NOERROR resolvers, on the
// engine's default eight workers, one pass over all the tuples and its
// retry round. Beside BenchmarkDomainRound's one name on one worker,
// ns/tuple here includes what the senders' fan-out and join cost.
func BenchmarkDomainScan(b *testing.B) {
	_, s, resolvers := snoopCensus(b, 8)
	ctx := context.Background()
	names := domains.Names()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkDomains, err = s.ScanDomainsContext(ctx, resolvers, names); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	tuples := float64(b.N) * float64(len(resolvers)) * float64(len(names))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/tuples, "allocs/tuple")
	b.ReportMetric(float64(len(resolvers)), "resolvers")
}
