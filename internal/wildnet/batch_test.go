package wildnet

import (
	"context"
	"net/netip"
	"reflect"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/metrics"
)

// batchWeek is the week the batch-form tests send at: past every
// FateBlocksScanner AS's fate week, so blocks that black-hole the
// primary vantage exist.
const batchWeek = 40

// batchTargets returns the destinations the batch-form tests cover: the
// first 2048 addresses of w's space, then one of each case the dispatch
// loop tells apart — empty Chinese space, a station, the authoritative
// and trusted-DNS infrastructure, a silent infrastructure role, and a
// resolver whose block black-holes the primary vantage.
func batchTargets(t *testing.T, w *World) []uint32 {
	t.Helper()
	at := At(batchWeek)
	bc := w.blockCache(batchWeek)
	targets := make([]uint32, 0, 2056)
	for u := range uint32(2048) {
		targets = append(targets, u)
	}
	var cn, blocked uint32
	for u := uint32(1); u < uint32(w.SpaceSize()) && (cn == 0 || blocked == 0); u++ {
		if cn == 0 && w.sweepClassify(u, VantagePrimary, at, bc) == classCNOnly {
			cn = u
		}
		if blocked == 0 && bc.blocks[w.geo.BlockOf(u)].blocksPrimary && w.ResolverAt(u, at) {
			blocked = u
		}
	}
	if cn == 0 || blocked == 0 {
		t.Fatalf("no empty Chinese space (%#x) or blocked resolver (%#x) in the world", cn, blocked)
	}
	// The lowest station, so two equal worlds pick the same one.
	station := w.mask
	for u := range w.stations {
		station = min(station, u&w.mask)
	}
	if len(w.stations) == 0 || w.sweepClassify(station, VantagePrimary, at, bc) != classDeliver {
		t.Fatalf("%d stations; station %#x is not deliverable", len(w.stations), station)
	}
	return append(targets, cn, station, w.infra.addrOf(RoleAuthNS, 0), w.infra.addrOf(RoleTrustedDNS, 0),
		w.infra.addrOf(RoleCensorPage, 0), blocked)
}

// TestBatchFormMatchesProbeAdapter: Send over a Batch and the []Probe
// adapter over it (SendBatch), given the same probes against two equal
// worlds, with no profile and under each chaos profile, make the same
// receiver callbacks in order, the same value of every deterministic
// series — wildnet.send.rejected and the wildnet.fault.* counters among
// them — and the same silent-memo bits, after each batch. The batches
// are every payload form: a census template the injector ignores, one
// whose names it reads, per-probe payloads in an arena under per-probe
// source ports, and one lent payload, a GFW-listed question; a retry
// round's template follows, to the memoised rejects. The adapter is also
// handed all five as one mixed []Probe, which it cuts into the same
// batches.
func TestBatchFormMatchesProbeAdapter(t *testing.T) {
	type delivery struct {
		src     netip.Addr
		sp, dp  uint16
		payload string
	}
	census := func(base string, attempt int) *dnswire.CensusQuery {
		baseWire, err := dnswire.EncodeNameWire(base)
		if err != nil {
			t.Fatal(err)
		}
		return dnswire.NewCensusQuery(baseWire, attempt)
	}
	deaf, read, retry := census(domains.ScanBase, 0), census("example.org", 0), census(domains.ScanBase, 1)
	if !gfwDeafTo(deaf) || gfwDeafTo(read) {
		t.Fatalf("the injector ignores the scan base: %v, a GFW-length base: %v", gfwDeafTo(deaf), gfwDeafTo(read))
	}
	query := func(id uint16, name string) []byte {
		wire, err := dnswire.NewQuery(id, name, dnswire.TypeA, dnswire.ClassIN).PackBytes()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	lent := query(77, "twitter.com")

	for _, profile := range append([]string{""}, ChaosProfileNames()...) {
		run := func(adapter, mixed bool) (got []delivery, snaps []metrics.Snapshot, memos [][]uint32) {
			cfg := DefaultConfig(14)
			if profile != "" {
				cfg.Faults = MustChaosProfile(profile)
			}
			cfg.Metrics = metrics.New()
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewMemTransport(w, VantagePrimary)
			defer tr.Close()
			tr.SetTime(At(batchWeek))
			tr.SetReceiver(func(src netip.Addr, sp, dp uint16, payload []byte) {
				got = append(got, delivery{src, sp, dp, string(payload)})
			})
			targets := batchTargets(t, w)
			arena := &Batch{Dst: targets, DstPort: 53, SrcPorts: make([]uint16, len(targets))}
			for i := range targets {
				name := domains.GroundTruth
				if i%2 == 1 {
					name = "facebook.com"
				}
				arena.SrcPorts[i] = 33000 + uint16(i%512)
				arena.Arena = append(arena.Arena, query(uint16(i), name)...)
				arena.Ends = append(arena.Ends, len(arena.Arena))
			}
			batches := []*Batch{
				{Dst: targets, DstPort: 53, SrcPort: 33000, Template: deaf},
				{Dst: targets, DstPort: 53, SrcPort: 33000, Template: read},
				arena,
				{Dst: targets, DstPort: 53, SrcPort: 33001, Payload: lent},
				{Dst: targets, DstPort: 53, SrcPort: 33000, Template: retry},
			}
			// probes is b in the Probe form, each payload its own copy.
			probes := func(b *Batch) []Probe {
				out := make([]Probe, len(b.Dst))
				for i, u := range b.Dst {
					out[i] = Probe{Dst: w.Addr(u), DstPort: b.DstPort, SrcPort: b.srcPort(i), Template: b.Template}
					if b.Template == nil {
						out[i].Payload = b.appendPayload(nil, i)
					}
				}
				return out
			}
			record := func() {
				snaps = append(snaps, cfg.Metrics.Snapshot().StripTiming())
				memos = append(memos, memoBits(tr))
			}
			ctx := context.Background()
			if mixed {
				var all []Probe
				for _, b := range batches {
					all = append(all, probes(b)...)
				}
				if n, err := tr.SendBatch(ctx, all); err != nil || n != len(all) {
					t.Fatalf("mixed SendBatch = %d, %v", n, err)
				}
				record()
				return got, snaps, memos
			}
			for _, b := range batches {
				var n int
				if adapter {
					n, err = tr.SendBatch(ctx, probes(b))
				} else {
					n, err = tr.Send(ctx, b)
				}
				if err != nil || n != len(b.Dst) {
					t.Fatalf("send = %d, %v", n, err)
				}
				record()
			}
			return got, snaps, memos
		}
		got, snaps, memos := run(false, false)
		adapted, adaptedSnaps, adaptedMemos := run(true, false)
		if !reflect.DeepEqual(got, adapted) {
			t.Errorf("profile %q: %d deliveries from batches, %d from the adapter", profile, len(got), len(adapted))
		}
		if !reflect.DeepEqual(snaps, adaptedSnaps) {
			t.Errorf("profile %q: deterministic series diverge:\nbatches %+v\nadapter %+v", profile, snaps, adaptedSnaps)
		}
		if !reflect.DeepEqual(memos, adaptedMemos) {
			t.Errorf("profile %q: silent-memo bits diverge", profile)
		}
		mixed, mixedSnaps, mixedMemos := run(true, true)
		last := len(snaps) - 1
		if !reflect.DeepEqual(got, mixed) || !reflect.DeepEqual(snaps[last], mixedSnaps[0]) || !reflect.DeepEqual(memos[last], mixedMemos[0]) {
			t.Errorf("profile %q: one mixed []Probe diverges from its batches sent one by one", profile)
		}
		final := snaps[last]
		if len(got) == 0 || final.Counter("wildnet.send.rejected") == 0 {
			t.Errorf("profile %q: %d deliveries, %d rejects", profile, len(got), final.Counter("wildnet.send.rejected"))
		}
		if profile == "hostile" && len(memos[0]) == 0 {
			t.Errorf("profile %q: the first batch memoised no silent address", profile)
		}
	}
}
