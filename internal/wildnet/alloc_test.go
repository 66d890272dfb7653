package wildnet

import (
	"context"
	"maps"
	"net/netip"
	"reflect"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/metrics"
)

// TestSendZeroFaultConfigAllocs pins the transport's silent-path
// budgets. With a zero FaultConfig, a probe toward a fast-rejected
// address (the silent majority of any sweep) must cost zero heap
// allocations — the reject predicate runs before the hash, the loss
// draw, and the parse. A probe into empty Chinese space (which the
// predicate cannot reject outright, because the injector might answer)
// is decided by the alloc-free question peek and must also cost zero
// allocations for a non-GFW name. A regression on either path means
// every probe of an order-24 sweep pays garbage.
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
	allocs := testing.AllocsPerRun(500, func() {
		if err := sendOne(ctx, tr, rejected, 53, 40000, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fast-rejected one-probe batch allocates %.1f per probe, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(500, func() {
		if err := sendOne(ctx, tr, slowSilent, 53, 40000, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("zero-fault CN-silent one-probe batch allocates %.1f per probe, want 0", allocs)
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
	allocs := testing.AllocsPerRun(500, func() {
		if err := sendOne(ctx, tr, rejected, 53, 40000, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hostile rejected one-probe batch allocates %.1f per probe, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hostile rejected SendBatch allocates %.1f per batch, want 0", allocs)
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
			if len(w.HandleDNS(VantagePrimary, 40000, u, q, now)) > 0 {
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
		if allocs := testing.AllocsPerRun(500, func() {
			if err := sendOne(ctx, tr, w.Addr(u), 53, 40000, payload); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s %v: answered one-probe batch allocates %.1f per probe, want 0", tc.name, tc.typ, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
				t.Fatalf("SendBatch = %d, %v", n, err)
			}
		}); allocs != 0 {
			t.Errorf("%s %v: answered SendBatch allocates %.1f per batch of %d, want 0", tc.name, tc.typ, allocs, len(batch))
		}
		// The first probe of each new hour misses the memo.
		answers = 0
		probes, hits := 0, 0
		if allocs := testing.AllocsPerRun(500, func() {
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
			t.Errorf("%s %v: answered one-probe batch at a new hour allocates %.1f per probe, want 0", tc.name, tc.typ, allocs)
		}
		if hits != 0 || answers != probes {
			t.Errorf("%s %v: %d of %d new-hour probes found the profile in the memo, %d drew an answer record", tc.name, tc.typ, hits, probes, answers)
		}
		tr.SetTime(now)
	}
}
