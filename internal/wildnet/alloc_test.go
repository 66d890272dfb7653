package wildnet

import (
	"context"
	"maps"
	"net"
	"net/netip"
	"reflect"
	"testing"

	"goingwild/internal/alloctest"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
)

// TestSendZeroFaultConfigAllocs pins the transport's silent-path
// budgets. With a zero FaultConfig, a probe toward a fast-rejected
// address (the silent majority of any sweep) must cost zero heap
// allocations — the reject predicate runs before the hash, the loss
// draw, and the parse. A probe into empty Chinese space (which the
// predicate cannot reject outright, because the injector might answer)
// is decided by the alloc-free question peek and must also cost zero
// allocations, for a non-GFW name and for a censored one the injector
// answers. A regression on either path means every probe of an order-24
// sweep pays garbage.
func TestSendZeroFaultConfigAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	w := testWorld(t, 16)
	if w.faultsOn {
		t.Fatal("default config must leave the fault layer off")
	}
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	if tr.attempts != nil {
		t.Fatal("zero FaultConfig must not arm the attempt counter")
	}
	responded := false
	tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) { responded = true })

	q := dnswire.NewQuery(7, "r1.c0a80101.scan.dnsstudy.example.edu", dnswire.TypeA, dnswire.ClassIN)
	payload, err := q.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	now := tr.Time()

	// Find one fast-rejected address and one silent slow-path address
	// (not rejectable, yet unresponsive: Chinese space with a non-GFW
	// query name ends the full pipeline without a response).
	var rejected, slowSilent netip.Addr
	for u := uint32(1); u < 1<<16; u++ {
		if rejected.IsValid() && slowSilent.IsValid() {
			break
		}
		if w.sweepReject(u, VantagePrimary, now) {
			if !rejected.IsValid() {
				rejected = w.Addr(u)
			}
			continue
		}
		responded = false
		if err := sendOne(ctx, tr, w.Addr(u), 53, 40000, payload); err != nil {
			t.Fatal(err)
		}
		if !responded && !slowSilent.IsValid() {
			slowSilent = w.Addr(u)
		}
	}
	if !rejected.IsValid() || !slowSilent.IsValid() {
		t.Fatalf("missing probe classes in the first 64Ki targets (rejected=%v slow=%v)", rejected, slowSilent)
	}

	// Warm the pools, then demand the steady-state budgets.
	for i := 0; i < 8; i++ {
		if err := sendOne(ctx, tr, slowSilent, 53, 40000, payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := alloctest.Count(500, func() {
		if err := sendOne(ctx, tr, rejected, 53, 40000, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fast-rejected one-probe batch allocates %d times over 500 probes, want 0", allocs)
	}
	allocs = alloctest.Count(500, func() {
		if err := sendOne(ctx, tr, slowSilent, 53, 40000, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("zero-fault CN-silent one-probe batch allocates %d times over 500 probes, want 0", allocs)
	}
	// A censored name in mixed case passes the question peek through
	// the case-insensitive list match and draws the injector's forged
	// answer, still without a heap allocation.
	censored, err := dnswire.NewQuery(7, "FaceBook.com", dnswire.TypeA, dnswire.ClassIN).PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	responded = false
	allocs = alloctest.Count(500, func() {
		if err := sendOne(ctx, tr, slowSilent, 53, 40000, censored); err != nil {
			t.Fatal(err)
		}
	})
	if !responded {
		t.Fatalf("no injected answer to a censored name sent to %v", slowSilent)
	}
	if allocs != 0 {
		t.Fatalf("zero-fault CN-censored one-probe batch allocates %d times over 500 probes, want 0", allocs)
	}
}

// TestUDPSendBatchAllocs pins the client side of the tunnel: framing and
// writing a 16-probe batch costs no heap allocation once the frame pool
// is warm. A plain loopback socket stands in for the gateway; nothing
// reads it, so the kernel drops what overflows its buffer.
func TestUDPSendBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	gw, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	tr, err := DialGateway(gw.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	batch := &Batch{DstPort: 53, SrcPort: 40000, Arena: make([]byte, 16*40)}
	for i := range 16 {
		batch.Dst = append(batch.Dst, 0x0A000001+uint32(i))
		batch.Ends = append(batch.Ends, (i+1)*40)
	}
	ctx := context.Background()
	allocs := alloctest.Count(100, func() {
		if _, err := tr.Send(ctx, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a 16-probe UDP batch allocates %d times over 100 batches, want 0", allocs)
	}
}

// TestSendHostileRejectAllocs is the chaos-profile sibling of the test
// above: under the hostile profile a probe toward a rejected address
// must take the same dispatch exit as on a clean world — zero heap
// allocations as a batch of one and as a batch of 64, and no attempt-counter
// entry, so the retransmission map holds deliverable destinations only.
func TestSendHostileRejectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	w := faultyWorld(t, 16, "hostile")
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	if tr.attempts == nil {
		t.Fatal("hostile profile must arm the attempt counter")
	}
	tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})

	q := dnswire.NewQuery(7, "r1.c0a80101.scan.dnsstudy.example.edu", dnswire.TypeA, dnswire.ClassIN)
	payload, err := q.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	now := tr.Time()
	bc := w.blockCache(now.Week)

	// One deliverable probe first, so "unchanged" is checked against a
	// non-empty map.
	var rejected netip.Addr
	seeded := false
	for u := uint32(1); u < 1<<16 && !(rejected.IsValid() && seeded); u++ {
		switch w.sweepClassify(u, VantagePrimary, now, bc) {
		case classReject:
			rejected = w.Addr(u)
		case classDeliver:
			if !seeded {
				if err := sendOne(ctx, tr, w.Addr(u), 53, 40000, payload); err != nil {
					t.Fatal(err)
				}
				seeded = true
			}
		}
	}
	if !rejected.IsValid() || !seeded {
		t.Fatalf("missing probe classes in the first 64Ki targets (rejected=%v deliverable=%v)", rejected, seeded)
	}
	before := attemptEntries(tr)
	if len(before) != 1 {
		t.Fatalf("one deliverable probe left %d attempt entries, want 1", len(before))
	}

	batch := make([]Probe, 64)
	for i := range batch {
		batch[i] = Probe{Dst: rejected, DstPort: 53, SrcPort: 40000, Payload: payload}
	}
	allocs := alloctest.Count(500, func() {
		if err := sendOne(ctx, tr, rejected, 53, 40000, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hostile rejected one-probe batch allocates %d times over 500 probes, want 0", allocs)
	}
	allocs = alloctest.Count(100, func() {
		if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hostile rejected SendBatch allocates %d times over 100 batches, want 0", allocs)
	}
	if after := attemptEntries(tr); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected probes changed the attempt map: %v -> %v", before, after)
	}
}

// attemptEntries copies the transport's retransmission counters out of
// every stripe.
func attemptEntries(tr *MemTransport) map[attemptKey]uint64 {
	out := map[attemptKey]uint64{}
	for i := range tr.attempts.shards {
		s := &tr.attempts.shards[i]
		s.mu.Lock()
		maps.Copy(out, s.m)
		s.mu.Unlock()
	}
	return out
}

// TestSendRejectedCounter: wildnet.send.rejected counts exactly the
// datagrams the dispatch dropped — the same number sent as one-probe
// batches and as one batch, under a clean and a chaos profile alike.
func TestSendRejectedCounter(t *testing.T) {
	for _, profile := range []string{"clean", "hostile"} {
		for _, batched := range []bool{false, true} {
			reg := metrics.New()
			cfg := DefaultConfig(14)
			cfg.Faults = MustChaosProfile(profile)
			cfg.Metrics = reg
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewMemTransport(w, VantagePrimary)
			tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})
			now := tr.Time()
			bc := w.blockCache(now.Week)
			ctx := context.Background()
			var batch []Probe
			want := uint64(0)
			for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
				q := dnswire.NewQuery(uint16(u), "facebook.com", dnswire.TypeA, dnswire.ClassIN)
				payload, err := q.PackBytes()
				if err != nil {
					t.Fatal(err)
				}
				if tr.undeliverable(w.sweepClassify(u, VantagePrimary, now, bc), 53, payload) {
					want++
				}
				batch = append(batch, Probe{Dst: w.Addr(u), DstPort: 53, SrcPort: 40000, Payload: payload})
			}
			if batched {
				if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
					t.Fatalf("SendBatch = %d, %v", n, err)
				}
			} else {
				for _, p := range batch {
					if err := sendOne(ctx, tr, p.Dst, p.DstPort, p.SrcPort, p.Payload); err != nil {
						t.Fatal(err)
					}
				}
			}
			tr.Close()
			got := reg.Snapshot().Counter("wildnet.send.rejected")
			if got != want || want == 0 || want == uint64(len(batch)) {
				t.Errorf("%s batched=%v: wildnet.send.rejected = %d, want %d of %d probes", profile, batched, got, want, len(batch))
			}
		}
	}
}

// TestSendAnsweredAndTruncatedCounters: wildnet.send.answered counts the
// exchanges the DNS handler answered, wildnet.response.truncated the
// responses the transport cut down to an empty TC reply, and
// wildnet.response.bytes every byte it handed the receiver — the same
// numbers sent as one-probe batches and as one batch. ANY queries without
// EDNS make the large amplifiers overflow the 512-octet ceiling; with
// loss off, every truncated response reaches the receiver carrying the
// TC bit.
func TestSendAnsweredAndTruncatedCounters(t *testing.T) {
	for _, batched := range []bool{false, true} {
		reg := metrics.New()
		cfg := DefaultConfig(14)
		cfg.Loss = 0
		cfg.Metrics = reg
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewMemTransport(w, VantagePrimary)
		var gotTC, gotBytes uint64
		tr.SetReceiver(func(_ netip.Addr, _, _ uint16, payload []byte) {
			gotBytes += uint64(len(payload))
			if m, err := dnswire.Unpack(payload); err == nil && m.Header.TC {
				gotTC++
			}
		})
		now := tr.Time()
		ctx := context.Background()
		var batch []Probe
		wantAnswered := uint64(0)
		for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
			q := dnswire.NewQuery(uint16(u), "chase.com", dnswire.TypeANY, dnswire.ClassIN)
			if len(handle(w, VantagePrimary, 40000, u, q, now)) > 0 {
				wantAnswered++
			}
			payload, err := q.PackBytes()
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, Probe{Dst: w.Addr(u), DstPort: 53, SrcPort: 40000, Payload: payload})
		}
		if batched {
			if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
				t.Fatalf("SendBatch = %d, %v", n, err)
			}
		} else {
			for _, p := range batch {
				if err := sendOne(ctx, tr, p.Dst, p.DstPort, p.SrcPort, p.Payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		tr.Close()
		snap := reg.Snapshot()
		if got := snap.Counter("wildnet.send.answered"); got != wantAnswered || got == 0 {
			t.Errorf("batched=%v: wildnet.send.answered = %d, want %d", batched, got, wantAnswered)
		}
		if got := snap.Counter("wildnet.response.truncated"); got != gotTC || got == 0 {
			t.Errorf("batched=%v: wildnet.response.truncated = %d, receiver saw %d TC responses", batched, got, gotTC)
		}
		if got := snap.Counter("wildnet.response.bytes"); got != gotBytes || got == 0 {
			t.Errorf("batched=%v: wildnet.response.bytes = %d, receiver saw %d bytes", batched, got, gotBytes)
		}
		if rej := snap.Counter("wildnet.send.rejected"); rej+wantAnswered > uint64(len(batch)) {
			t.Errorf("batched=%v: rejected %d + answered %d exceed the %d probes sent", batched, rej, wantAnswered, len(batch))
		}
	}
}

// TestAnsweredSendAllocs pins the answered path's budget: with a zero
// FaultConfig and a receiver that keeps nothing, an exchange an honest
// resolver answers costs zero heap allocations at steady state — as a
// batch of one and as a batch of 64 — for an A question on a scan-list
// name (0x20-cased, as the domain scan sends it) and for a name in a
// signed zone (both appended from the canned answer table), and for a
// cache-snooping NS question — each with the resolver's profile in the
// world's memo and at a new hour, where the probe derives the profile
// and stores it. The
// query is read through the exchange's View and the response appended
// into its arena; a Message, a boxed record or a name string anywhere on
// that path shows up here as a non-zero count. (The handler before it
// cost 8 per A answer.)
func TestAnsweredSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	w := testWorld(t, 16)
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	now := tr.Time()
	answers := 0
	tr.SetReceiver(func(_ netip.Addr, _, _ uint16, payload []byte) {
		v := dnswire.GetView()
		if v.Reset(payload) == nil && v.AnswerCount() > 0 {
			answers++
		}
		dnswire.PutView(v)
	})
	u := memoProbeResolver(t, w)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		typ  dnswire.Type
		rd   bool
	}{
		{"chase.com", dnswire.TypeA, true},
		{"paypal.com", dnswire.TypeA, true},
		{"com", dnswire.TypeNS, false},
	} {
		payload, err := dnswire.AppendQuery(nil, 0, tc.rd, tc.name, tc.typ, dnswire.ClassIN)
		if err != nil {
			t.Fatal(err)
		}
		dnswire.Encode0x20Bytes(dnswire.QueryNameWire(payload), 0x155, 9)
		batch := make([]Probe, 64)
		for i := range batch {
			batch[i] = Probe{Dst: w.Addr(u), DstPort: 53, SrcPort: 40000, Payload: payload}
		}
		// Warm the pools and the signature cache, and make sure the budget
		// is measured on exchanges that are answered and delivered.
		answers = 0
		if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
		if answers != len(batch) {
			t.Fatalf("%s %v: %d of %d probes drew an answer record", tc.name, tc.typ, answers, len(batch))
		}
		if allocs := alloctest.Count(500, func() {
			if err := sendOne(ctx, tr, w.Addr(u), 53, 40000, payload); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s %v: answered one-probe batch allocates %d times over 500 probes, want 0", tc.name, tc.typ, allocs)
		}
		if allocs := alloctest.Count(100, func() {
			if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
				t.Fatalf("SendBatch = %d, %v", n, err)
			}
		}); allocs != 0 {
			t.Errorf("%s %v: answered SendBatch allocates %d times over 100 batches of %d, want 0", tc.name, tc.typ, allocs, len(batch))
		}
		// The first probe of each new hour misses the memo.
		answers = 0
		probes, hits := 0, 0
		if allocs := alloctest.Count(500, func() {
			probes++
			at := memoHour(probes)
			var p Profile
			if key, _ := profileKey(u, at); w.prof.lookup(u, key, &p) {
				hits++
			}
			tr.SetTime(at)
			if err := sendOne(ctx, tr, w.Addr(u), 53, 40000, payload); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s %v: answered one-probe batch at a new hour allocates %d times over 500 probes, want 0", tc.name, tc.typ, allocs)
		}
		if hits != 0 || answers != probes {
			t.Errorf("%s %v: %d of %d new-hour probes found the profile in the memo, %d drew an answer record", tc.name, tc.typ, hits, probes, answers)
		}
		tr.SetTime(now)
	}
}

// TestTargetListSendAllocs: a sweep's batch form — its targets under a
// census template — costs no allocation through Send when the targets
// are silent, on a clean world and under hostile, where the repeated
// batch meets the silent memo; nor when they lie in empty Chinese space,
// under a template the injector ignores (rejected unbuilt) and under one
// whose names it reads (each built and its question read).
func TestTargetListSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	readWire, err := dnswire.EncodeNameWire("example.org")
	if err != nil {
		t.Fatal(err)
	}
	deaf, read := memoTemplates(t)[0], dnswire.NewCensusQuery(readWire, 0)
	ctx := context.Background()
	for _, profile := range []string{"", "hostile"} {
		w := testWorld(t, 16)
		if profile != "" {
			w = faultyWorld(t, 16, profile)
		}
		tr := NewMemTransport(w, VantagePrimary)
		defer tr.Close()
		tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})
		now := tr.Time()
		bc := w.blockCache(now.Week)
		var silent, cn []uint32
		for u := uint32(0); u < uint32(w.SpaceSize()) && (len(silent) < 256 || len(cn) < 256); u++ {
			switch w.sweepClassify(u, VantagePrimary, now, bc) {
			case classReject:
				silent = append(silent, u)
			case classCNOnly:
				cn = append(cn, u)
			}
		}
		if len(silent) < 256 || len(cn) < 16 {
			t.Fatalf("profile %q: %d silent and %d empty Chinese addresses", profile, len(silent), len(cn))
		}
		for _, tc := range []struct {
			name string
			b    *Batch
		}{
			{"silent", &Batch{Dst: silent[:256], DstPort: 53, SrcPort: 33000, Template: deaf}},
			{"CN-only, ignored", &Batch{Dst: cn, DstPort: 53, SrcPort: 33000, Template: deaf}},
			{"CN-only, read", &Batch{Dst: cn, DstPort: 53, SrcPort: 33000, Template: read}},
		} {
			send := func() {
				if n, err := tr.Send(ctx, tc.b); err != nil || n != len(tc.b.Dst) {
					t.Fatalf("Send = %d, %v", n, err)
				}
			}
			send()
			if allocs := alloctest.Count(100, send); allocs != 0 {
				t.Errorf("profile %q: a %s batch of %d targets allocates %d times over 100 batches, want 0",
					profile, tc.name, len(tc.b.Dst), allocs)
			}
		}
	}
}

// TestTemplateSendAllocs holds the deliver-and-build path to the budget
// of the bytes it builds. Into empty Chinese space, a template whose
// names are as long as a GFW-listed one is built into the exchange
// scratch and its question read, at zero allocations. To a resolver, a
// template probe is built past the reject, answered and delivered at
// exactly the allocations of the same probe sent built: the build adds
// none, and the handler's answer to a scan-base name costs one, its
// question name's string.
func TestTemplateSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	w := testWorld(t, 16)
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	answers := 0
	tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) { answers++ })
	ctx := context.Background()
	batchOf := func(p Probe) []Probe {
		batch := make([]Probe, 64)
		for i := range batch {
			batch[i] = p
		}
		return batch
	}
	// allocs counts a batch's allocations after one warm send, and
	// reports how many responses the warm send drew.
	allocs := func(batch []Probe) (n uint64, warmAnswers int) {
		t.Helper()
		answers = 0
		if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
		warmAnswers = answers
		return alloctest.Count(100, func() {
			if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
				t.Fatalf("SendBatch = %d, %v", n, err)
			}
		}), warmAnswers
	}

	now := tr.Time()
	bc := w.blockCache(now.Week)
	cn := uint32(0)
	for w.sweepClassify(cn, VantagePrimary, now, bc) != classCNOnly {
		if cn++; cn == uint32(w.SpaceSize()) {
			t.Fatal("no empty Chinese space in the order-16 world")
		}
	}
	gfwLong, err := dnswire.EncodeNameWire("example.org")
	if err != nil {
		t.Fatal(err)
	}
	tmpl := dnswire.NewCensusQuery(gfwLong, 0)
	if gfwDeafTo(tmpl) {
		t.Fatalf("a %d-byte name matches no GFW-listed length", tmpl.NameLen())
	}
	if n, got := allocs(batchOf(Probe{Dst: w.Addr(cn), DstPort: 53, SrcPort: 33000, Template: tmpl})); n != 0 || got != 0 {
		t.Errorf("built-and-read template batch into Chinese space allocates %d times over 100 batches, %d answers; want 0 and 0", n, got)
	}

	baseWire, err := dnswire.EncodeNameWire(dnswire.CanonicalName(domains.ScanBase))
	if err != nil {
		t.Fatal(err)
	}
	lazy := Probe{Dst: w.Addr(memoProbeResolver(t, w)), DstPort: 53, SrcPort: 33000, Template: dnswire.NewCensusQuery(baseWire, 0)}
	built := lazy
	built.Payload, built.Template = lazy.Template.Append(nil, lfsr.AddrToU32(lazy.Dst)), nil
	lazyAllocs, got := allocs(batchOf(lazy))
	if got != 64 {
		t.Fatalf("%d of 64 template probes to a resolver drew a response", got)
	}
	if builtAllocs, _ := allocs(batchOf(built)); lazyAllocs != builtAllocs {
		t.Errorf("answered template batch allocates %d times over 100 batches, the same probes built %d", lazyAllocs, builtAllocs)
	}
	// The one allocation an answered census probe costs is the handler's
	// string of its question name; the target is decoded from the
	// exchange's bytes.
	if perProbe := float64(lazyAllocs) / (100 * 64); perProbe > 1 {
		t.Errorf("answered template probe allocates %.2f times, want at most 1", perProbe)
	}
}
