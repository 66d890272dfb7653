package wildnet

import (
	"context"
	"net/netip"
	"reflect"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/metrics"
	"goingwild/internal/prand"
)

// sweepReject is the reject verdict alone, with the week's block table
// looked up per call.
func (w *World) sweepReject(u uint32, v Vantage, t Time) bool {
	return w.sweepClassify(u, v, t, w.blockCache(t.Week)) == classReject
}

// referenceCanAnswer recomputes, from the public World API, whether any
// query toward u could draw a response — the predicate sweepReject must
// never contradict.
func referenceCanAnswer(w *World, u uint32, v Vantage, t Time) bool {
	u = w.Mask(u)
	switch w.infra.roleOf(u) {
	case RoleAuthNS, RoleTrustedDNS:
		return true
	case RoleNone:
	default:
		return false
	}
	if !w.VisibleFrom(u, v, t) {
		return false
	}
	if _, ok := w.ProfileAt(u, t); ok {
		return true
	}
	// The injector can answer for empty Chinese space.
	return w.geo.LookupU32(u).Country == "CN"
}

// soundnessTimes are the instants the soundness tests visit: the first
// week, two mid-study weeks (one off the week boundary) and the last.
var soundnessTimes = []Time{{}, {Week: 5}, {Week: 20, Day: 3, Hour: 7}, {Week: 55}}

// TestSweepRejectSoundness walks the entire order-14 space under every
// chaos profile, at several instants and both vantages, checking the fast
// predicate against the defining slow computation: a reject must imply no
// possible answer, and a non-reject of non-Chinese space must imply an
// answerer exists (the predicate is exact there; Chinese space is
// conservatively kept).
func TestSweepRejectSoundness(t *testing.T) {
	for _, profile := range ChaosProfileNames() {
		w := faultyWorld(t, 14, profile)
		for _, tm := range soundnessTimes {
			for _, v := range []Vantage{VantagePrimary, VantageSecondary} {
				for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
					reject := w.sweepReject(u, v, tm)
					can := referenceCanAnswer(w, u, v, tm)
					if reject && can {
						t.Fatalf("%s week %d vantage %d: %#x fast-rejected but can answer", profile, tm.Week, v, u)
					}
					if !reject && !can && w.geo.LookupU32(u).Country != "CN" {
						t.Fatalf("%s week %d vantage %d: %#x not rejected yet cannot answer", profile, tm.Week, v, u)
					}
				}
			}
		}
	}
}

// TestKnownResolverAgreesWithClassify: once every address of an order-14
// world has been asked for its profile at an instant, the memo-first
// dispatch knows the resolvers there — nearly all of them, since a set
// can overflow — and wherever it knows one, sweepClassify delivers too,
// under both vantages (the networks that black-hole the primary vantage
// by week 55 included).
func TestKnownResolverAgreesWithClassify(t *testing.T) {
	w := testWorld(t, 14)
	for _, tm := range soundnessTimes {
		c := w.blockCache(tm.Week)
		resolvers := 0
		for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
			if _, ok := w.ProfileAt(u, tm); ok {
				resolvers++
			}
		}
		for _, v := range []Vantage{VantagePrimary, VantageSecondary} {
			known, delivered := 0, 0
			for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
				class := w.sweepClassify(u, v, tm, c)
				if _, ok := w.ProfileAt(u, tm); ok && class == classDeliver {
					delivered++
				}
				if !w.knownResolver(u, v, tm, c) {
					continue
				}
				known++
				if class != classDeliver {
					t.Fatalf("week %d vantage %d: %#x known to the memo, classified %d", tm.Week, v, u, class)
				}
			}
			if known == 0 || known < delivered*95/100 {
				t.Errorf("week %d vantage %d: memo knows %d of %d delivered resolvers (%d resolvers)", tm.Week, v, known, delivered, resolvers)
			}
		}
	}
}

// TestSweepRejectMatchesHandler proves, rather than assumes, that the
// dispatch decision holds under faults: for every chaos profile, vantage
// and instant it fires a sweep-shaped query at each address SendBatch
// would drop and demands silence from the full handler and — bypassing the
// dispatch by calling process directly — from the full transport
// pipeline, for the first transmission and two identical retransmissions
// (attempts 0–2, each a fresh set of fault draws).
func TestSweepRejectMatchesHandler(t *testing.T) {
	ctx := context.Background()
	for _, profile := range ChaosProfileNames() {
		w := faultyWorld(t, 14, profile)
		for _, v := range []Vantage{VantagePrimary, VantageSecondary} {
			tr := NewMemTransport(w, v)
			delivered := 0
			tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) { delivered++ })
			x := new(exchange)
			for _, now := range soundnessTimes {
				tr.SetTime(now)
				bc := w.blockCache(now.Week)
				checked := 0
				for u := uint32(0); u < uint32(w.SpaceSize()); u += 3 {
					q := dnswire.NewQuery(uint16(u), "r0af3.00112233.scan.dnsstudy.example.edu", dnswire.TypeA, dnswire.ClassIN)
					payload, err := q.PackBytes()
					if err != nil {
						t.Fatal(err)
					}
					if !tr.undeliverable(w.sweepClassify(u, v, now, bc), 53, payload) {
						continue
					}
					for attempt := uint64(0); attempt < 3; attempt++ {
						fc := faultCtx{payloadHash: prand.FNV(payload), attempt: attempt}
						if resps := w.handleDNS(x, v, 33000, u, payload, now, fc); len(resps) != 0 {
							t.Fatalf("%s vantage %d week %d: %#x dropped at dispatch but handleDNS answered attempt %d",
								profile, v, now.Week, u, attempt)
						}
						if err := tr.process(ctx, ctx.Done(), x, u, 53, 33000, payload, prand.FNV(payload), now); err != nil {
							t.Fatal(err)
						}
					}
					checked++
				}
				if delivered != 0 {
					t.Fatalf("%s vantage %d week %d: full pipeline delivered %d responses for dropped targets",
						profile, v, now.Week, delivered)
				}
				if checked < 1000 {
					t.Fatalf("%s vantage %d week %d: only %d dropped targets in an order-14 world; predicate suspiciously weak",
						profile, v, now.Week, checked)
				}
			}
			tr.Close()
		}
	}
}

// TestCNFilterMatchesPipeline drives empty-Chinese-space addresses
// (classCNOnly: no resolver, but the injector might react) through a one-probe
// SendBatch — which decides with the alloc-free question peek — and through the
// bypassed full pipeline, across GFW-listed, unlisted, and non-A
// questions, and requires byte-identical deliveries.
func TestCNFilterMatchesPipeline(t *testing.T) {
	w := testWorld(t, 14)
	now := Time{Week: 3}
	bc := w.blockCache(now.Week)
	queries := []*dnswire.Message{
		dnswire.NewQuery(0x11, "facebook.com", dnswire.TypeA, dnswire.ClassIN),
		dnswire.NewQuery(0x12, "FaceBook.COM", dnswire.TypeA, dnswire.ClassIN),
		dnswire.NewQuery(0x13, "facebook.com", dnswire.TypeTXT, dnswire.ClassIN),
		dnswire.NewQuery(0x14, "r0af3.00112233.scan.dnsstudy.example.edu", dnswire.TypeA, dnswire.ClassIN),
		dnswire.NewQuery(0x15, "example.org", dnswire.TypeA, dnswire.ClassIN),
	}
	run := func(bypass bool) []string {
		tr := NewMemTransport(w, VantagePrimary)
		defer tr.Close()
		tr.SetTime(now)
		var got []string
		tr.SetReceiver(func(src netip.Addr, sp, dp uint16, payload []byte) {
			got = append(got, src.String()+"|"+string(payload))
		})
		ctx := context.Background()
		cnSeen := 0
		for u := uint32(0); u < uint32(w.SpaceSize()); u += 7 {
			if w.sweepClassify(u, VantagePrimary, now, bc) != classCNOnly {
				continue
			}
			cnSeen++
			for _, q := range queries {
				payload, err := q.PackBytes()
				if err != nil {
					t.Fatal(err)
				}
				if bypass {
					if err := tr.process(ctx, ctx.Done(), new(exchange), u, 53, 34567, payload, prand.FNV(payload), now); err != nil {
						t.Fatal(err)
					}
				} else if err := sendOne(ctx, tr, w.Addr(u), 53, 34567, payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		if cnSeen < 100 {
			t.Fatalf("only %d classCNOnly addresses sampled; world suspiciously un-Chinese", cnSeen)
		}
		return got
	}
	fast := run(false)
	full := run(true)
	if len(fast) != len(full) {
		t.Fatalf("deliveries differ: %d via SendBatch vs %d via full pipeline", len(fast), len(full))
	}
	for i := range fast {
		if fast[i] != full[i] {
			t.Fatalf("delivery %d differs:\n fast: %s\n full: %s", i, fast[i], full[i])
		}
	}
	if len(fast) == 0 {
		t.Fatal("no injector deliveries at all; GFW queries should have drawn answers")
	}
}

// TestSendBatchMatchesSend sends the same probe set as one batch and as
// one-probe batches against two equal worlds and requires identical
// deliveries, byte for byte and in order: where a batch is cut is pure
// dispatch.
func TestSendBatchMatchesSend(t *testing.T) {
	type delivery struct {
		src     netip.Addr
		sp, dp  uint16
		payload string
	}
	run := func(batched bool) []delivery {
		w := testWorld(t, 14)
		tr := NewMemTransport(w, VantagePrimary)
		defer tr.Close()
		var got []delivery
		tr.SetReceiver(func(src netip.Addr, sp, dp uint16, payload []byte) {
			got = append(got, delivery{src, sp, dp, string(payload)})
		})
		ctx := context.Background()
		var batch []Probe
		payloads := make([][]byte, 0, 4096)
		for u := uint32(1); u <= 4096; u++ {
			q := dnswire.NewQuery(uint16(u), "r1.c0a80101.scan.dnsstudy.example.edu", dnswire.TypeA, dnswire.ClassIN)
			payload, err := q.PackBytes()
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, payload)
			batch = append(batch, Probe{Dst: w.Addr(u), DstPort: 53, SrcPort: 33000, Payload: payload})
		}
		if batched {
			n, err := tr.SendBatch(ctx, batch)
			if err != nil || n != len(batch) {
				t.Fatalf("SendBatch = %d, %v", n, err)
			}
		} else {
			for i, p := range batch {
				if err := sendOne(ctx, tr, p.Dst, p.DstPort, p.SrcPort, payloads[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return got
	}
	single := run(false)
	batch := run(true)
	if len(single) != len(batch) {
		t.Fatalf("deliveries differ: %d single vs %d batched", len(single), len(batch))
	}
	for i := range single {
		if single[i] != batch[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, single[i], batch[i])
		}
	}
	if len(single) == 0 {
		t.Fatal("no deliveries at all; world suspiciously empty")
	}
}

// TestTemplateProbesMatchPayloadProbes sends every address of an order-14
// hostile world the census probe of two rounds, once as templates and
// once built into payloads of their own, against two equal worlds, and
// requires identical deliveries, byte for byte and in order, and equal
// deterministic series (wildnet.send.rejected and wildnet.fault.*
// among them). Over the scan base the injector ignores every instance, so
// empty Chinese space rejects them unbuilt; over a base whose names are as
// long as a GFW-listed one, those probes take the build-and-read path.
func TestTemplateProbesMatchPayloadProbes(t *testing.T) {
	type delivery struct {
		src     netip.Addr
		sp, dp  uint16
		payload string
	}
	for _, base := range []string{"scan.dnsstudy.example.edu", "example.org"} {
		baseWire, err := dnswire.EncodeNameWire(base)
		if err != nil {
			t.Fatal(err)
		}
		tmpls := []*dnswire.CensusQuery{dnswire.NewCensusQuery(baseWire, 0), dnswire.NewCensusQuery(baseWire, 1)}
		if base == "example.org" && gfwDeafTo(tmpls[0]) {
			t.Fatalf("%s: a %d-byte name matches no GFW-listed length", base, tmpls[0].NameLen())
		}
		run := func(built bool) ([]delivery, metrics.Snapshot) {
			cfg := DefaultConfig(14)
			cfg.Faults = MustChaosProfile("hostile")
			cfg.Metrics = metrics.New()
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewMemTransport(w, VantagePrimary)
			defer tr.Close()
			var got []delivery
			tr.SetReceiver(func(src netip.Addr, sp, dp uint16, payload []byte) {
				got = append(got, delivery{src, sp, dp, string(payload)})
			})
			for _, tmpl := range tmpls {
				batch := make([]Probe, 0, w.SpaceSize())
				for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
					p := Probe{Dst: w.Addr(u), DstPort: 53, SrcPort: 33000, Template: tmpl}
					if built {
						p.Payload, p.Template = tmpl.Append(nil, u), nil
					}
					batch = append(batch, p)
				}
				if n, err := tr.SendBatch(context.Background(), batch); err != nil || n != len(batch) {
					t.Fatalf("SendBatch = %d, %v", n, err)
				}
			}
			return got, cfg.Metrics.Snapshot().StripTiming()
		}
		lazy, lazySnap := run(false)
		built, builtSnap := run(true)
		if !reflect.DeepEqual(lazy, built) {
			t.Errorf("%s: %d deliveries from templates, %d from built probes", base, len(lazy), len(built))
		}
		if !reflect.DeepEqual(lazySnap, builtSnap) {
			t.Errorf("%s: deterministic series diverge:\ntemplates %+v\nbuilt     %+v", base, lazySnap.Counters, builtSnap.Counters)
		}
		if len(lazy) == 0 || lazySnap.Counter("wildnet.send.rejected") == 0 {
			t.Errorf("%s: %d deliveries, %d rejects", base, len(lazy), lazySnap.Counter("wildnet.send.rejected"))
		}
	}
}
