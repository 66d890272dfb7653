package scanner

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// builtTransport hands the in-memory transport every probe in the
// Payload form: it builds each template probe's bytes into a slice of its
// own first, so the transport builds nothing past its reject and no two
// probes share a backing array.
type builtTransport struct{ *wildnet.MemTransport }

func (b builtTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	built := make([]wildnet.Probe, len(batch))
	for i, p := range batch {
		p.Payload, p.Template = p.AppendPayload(nil), nil
		built[i] = p
	}
	return b.MemTransport.SendBatch(ctx, built)
}

// TestLazyProbesMatchBuiltProbes is the differential for the template
// form: an order-16 sweep with two retry rounds whose probes reach the
// transport as templates gives the same SweepResult, and the same value
// of every deterministic series — wildnet.send.rejected and the
// wildnet.fault.* counters included — as one whose probes arrive built,
// under no fault profile and under hostile. Built bytes share one
// scratch buffer in the transport, so a transport that hashed a built
// probe once and reused the hash for the next would fail here.
func TestLazyProbesMatchBuiltProbes(t *testing.T) {
	ctx := context.Background()
	for _, profile := range []string{"", "hostile"} {
		sweep := func(built bool) (*SweepResult, metrics.Snapshot) {
			reg := metrics.New()
			cfg := wildnet.DefaultConfig(16)
			if profile != "" {
				cfg.Faults = wildnet.MustChaosProfile(profile)
			}
			cfg.Metrics = reg
			w, err := wildnet.NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
			defer tr.Close()
			var transport Transport = tr
			if built {
				transport = builtTransport{tr}
			}
			s := New(transport, Options{Workers: 4, SweepRetries: 2, SettleDelay: NoSettle, Metrics: reg})
			res, err := s.SweepContext(ctx, 16, 4242, w.ScanBlacklist())
			if err != nil {
				t.Fatal(err)
			}
			return res, reg.Snapshot().StripTiming()
		}
		lazy, lazySnap := sweep(false)
		built, builtSnap := sweep(true)
		if lazy.Total() < 100 {
			t.Fatalf("profile %q: only %d responders in the order-16 world", profile, lazy.Total())
		}
		if !reflect.DeepEqual(lazy, built) {
			t.Errorf("profile %q: template probes find %d responders, built probes %d", profile, lazy.Total(), built.Total())
		}
		if !reflect.DeepEqual(lazySnap, builtSnap) {
			for i, c := range lazySnap.Counters {
				if i < len(builtSnap.Counters) && c != builtSnap.Counters[i] {
					t.Errorf("profile %q: templates %+v, built %+v", profile, c, builtSnap.Counters[i])
				}
			}
			t.Errorf("profile %q: deterministic series diverge", profile)
		}
		if lazySnap.Counter("wildnet.send.rejected") == 0 || lazySnap.Counter("scanner.retry.spend") == 0 {
			t.Errorf("profile %q: the sweep rejected %d probes and retried %d", profile,
				lazySnap.Counter("wildnet.send.rejected"), lazySnap.Counter("scanner.retry.spend"))
		}
		if profile != "" && lazySnap.Counter("wildnet.fault.drop.query") == 0 {
			t.Errorf("profile %q: no query was dropped by the fault layer", profile)
		}
	}
}

// roundCheckTransport runs check before the first batch of every round —
// the first batch carrying a template it has not seen — and holds every
// other batch back until check returns. A round's first batch follows the
// previous round's settle, and no batch of the new round has been sent
// yet, so check sees the answered set the round's miss check read.
type roundCheckTransport struct {
	Transport
	mu    sync.Mutex
	last  *dnswire.CensusQuery
	check func()
}

func (r *roundCheckTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	r.mu.Lock()
	if tmpl := batch[0].Template; tmpl != r.last {
		r.last = tmpl
		r.check()
	}
	r.mu.Unlock()
	return r.Transport.SendBatch(ctx, batch)
}

// TestSweepMissMatchesAnswered: the retry rounds' lock-free miss check
// agrees, for every target of the space, with the responder list the
// receivers fill — one responder per claimed target, none for a missed
// one — after each round of an order-14 hostile sweep whose four senders
// claim the answered bits concurrently. make race runs it three times
// under the detector.
func TestSweepMissMatchesAnswered(t *testing.T) {
	const order = 14
	w, tr := chaosWorld(t, order, "hostile")
	defer tr.Close()
	checks := 0
	ct := &roundCheckTransport{Transport: tr}
	s := New(ct, Options{Workers: 4, SweepRetries: 2, SettleDelay: NoSettle})
	st, run, err := s.newSweep(order, 977, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	ct.check = func() {
		checks++
		st.mu.Lock()
		listed := make(map[uint32]int, len(st.responders))
		for _, r := range st.responders {
			listed[r.Addr]++
		}
		st.mu.Unlock()
		answered = len(listed)
		for u := uint32(0); u < 1<<order; u++ {
			// check runs on a sender goroutine: no Fatal here.
			if n := listed[u]; run.miss(u) != (n == 0) || n > 1 {
				t.Errorf("check %d, target %#x: miss = %v with %d responders listed", checks, u, run.miss(u), n)
				return
			}
		}
	}
	s.tr.SetReceiver(st.receive)
	defer s.tr.SetReceiver(nil)
	if err := s.run(context.Background(), run); err != nil {
		t.Fatal(err)
	}
	ct.check()
	// One check before each of the three rounds, one after the last.
	if checks != 4 || answered < 50 {
		t.Fatalf("%d checks, %d targets answered at the end; want 4 checks over a populated space", checks, answered)
	}
}
