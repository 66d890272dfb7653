package wildnet

import (
	"context"
	"net/netip"
	"sync"
	"testing"

	"goingwild/internal/devices"
	"goingwild/internal/dnswire"
	"goingwild/internal/metrics"
	"goingwild/internal/software"
)

// memoInstants are the times the memo is checked at: weeks 0, 9 and 54,
// hours on both sides of a day boundary, a minute inside an hour, and two
// Times with the same AbsHour but different weeks (the second out of
// range, so it bypasses the memo and must not be answered from the
// first's entry).
var memoInstants = []Time{
	{Week: 0}, {Week: 0, Day: 0, Hour: 23}, {Week: 0, Day: 1, Hour: 0, Minute: 30},
	{Week: 9}, {Week: 9, Day: 3, Hour: 23}, {Week: 9, Day: 4, Hour: 0},
	{Week: 54, Day: 6, Hour: 23}, {Week: 55},
	{Week: 1, Day: 0, Hour: 5}, {Week: 0, Day: 7, Hour: 5},
}

// TestProfileMemoMatchesDerivation: ProfileAt through the memo returns
// what the uncached derivation returns, for every address of an order-16
// world at every instant — on the world's own table, asked twice so the
// second answer is a hit; on a one-set table, where every address
// collides; and from four goroutines at once on both, each walking the
// instants in its own order.
func TestProfileMemoMatchesDerivation(t *testing.T) {
	if len(software.Catalog) >= 1<<16-1 || len(software.HiddenStrings) >= 1<<16-1 || len(devices.Catalog) >= 1<<16-1 {
		t.Fatal("a catalog outgrew the memo's 16-bit index fields")
	}
	w := testWorld(t, 16)
	n := uint32(w.SpaceSize())
	type derived struct {
		p  Profile
		ok bool
	}
	want := make([][]derived, len(memoInstants))
	resolvers := 0
	for i, at := range memoInstants {
		want[i] = make([]derived, n)
		for u := uint32(0); u < n; u++ {
			p, ok := w.deriveProfile(u, at)
			want[i][u] = derived{p, ok}
			if ok {
				resolvers++
			}
		}
	}
	if resolvers == 0 {
		t.Fatal("no resolver at any instant")
	}
	check := func(t *testing.T, i int, u uint32) bool {
		p, ok := w.ProfileAt(u, memoInstants[i])
		if d := want[i][u]; ok != d.ok || p != d.p {
			t.Errorf("%+v u=%#x: memo %+v %v, derivation %+v %v", memoInstants[i], u, p, ok, d.p, d.ok)
			return false
		}
		return true
	}

	for _, memo := range []struct {
		name string
		m    profileMemo
	}{{"own", w.prof}, {"one-set", newProfileMemo(profileWays)}} {
		w.prof = memo.m
		name := memo.name
		t.Run(name, func(t *testing.T) {
			for i, at := range memoInstants {
				for u := uint32(0); u < n; u++ {
					if !check(t, i, u) || !check(t, i, u) {
						return
					}
					var p Profile
					if key, memoized := profileKey(u, at); memoized && want[i][u].ok && !w.prof.lookup(u, key, &p) {
						t.Fatalf("%+v u=%#x: derived profile not in the memo after ProfileAt", at, u)
					}
				}
			}
		})
		t.Run(name+"/concurrent", func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := range memoInstants {
						i := (k*(2*g+1) + g) % len(memoInstants)
						for u := uint32(0); u < n; u++ {
							if !check(t, i, u) {
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestProfileDerivedCounter: wildnet.profile.derived counts one
// derivation per (address, hour) a name-major list of questions touches,
// however many questions it asks there — and one per question to an
// address no resolver holds, which the memo does not keep.
func TestProfileDerivedCounter(t *testing.T) {
	reg := metrics.New()
	cfg := DefaultConfig(16)
	cfg.Metrics = reg
	w := MustNewWorld(cfg)
	hours := []Time{At(9), {Week: 9, Hour: 1}}
	var list []uint32
	want := uint64(0)
	for u := uint32(0); u < uint32(w.SpaceSize()) && len(list) < 200; u++ {
		if _, ok := w.deriveProfile(u, hours[0]); !ok {
			continue
		}
		list = append(list, u)
		if _, ok := w.deriveProfile(u, hours[1]); ok {
			want += 2
		} else {
			want += 1 + 20 // left at hour 1: derived by every question
		}
	}
	if want == uint64(2*len(list)) {
		t.Fatal("no resolver of the list leaves its address at hour 1")
	}
	for _, at := range hours {
		for q := 0; q < 20; q++ {
			for _, u := range list {
				w.ProfileAt(u, at)
			}
		}
	}
	if got := reg.Snapshot().Counter("wildnet.profile.derived"); got != want {
		t.Errorf("wildnet.profile.derived = %d after 20 questions to %d resolvers at two hours, want %d", got, len(list), want)
	}
}

// memoProbeResolver finds an honest US resolver that holds its address
// through week 0 (not on a daily lease), so that every hour of the week
// has a profile to derive, and whose cache holds the NS set of "com"
// (SnoopedTLDs[3]) at every hour.
func memoProbeResolver(tb testing.TB, w *World) uint32 {
	for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
		p, ok := w.ProfileAt(u, At(0))
		if ok && p.RCode == RCNoError && p.Manip == ManipHonest && p.Country == "US" &&
			(p.Util == UtilInUseFast || p.Util == UtilResetting) && snoopState(&p, 3, 0, 0).Cached &&
			w.stabilityOf(u) != StabilityDaily {
			return u
		}
	}
	tb.Fatal("no stable honest resolver")
	return 0
}

// memoHour returns the hour-th hour of week 0 after its first, cycling
// through the other 167.
func memoHour(hour int) Time {
	h := 1 + hour%(7*24-1)
	return Time{Day: h / 24, Hour: h % 24}
}

// BenchmarkAnsweredProbe times one answered probe on the in-memory
// transport, as a batch of one, for a scan-list A question and a
// snooping NS question, each with the resolver's profile in the memo
// (hit) and at a new hour (miss: the probe derives it). Both variants set
// the clock before every probe, so hit and miss differ only in the
// derivation; the figure to read is ns/probe.
func BenchmarkAnsweredProbe(b *testing.B) {
	w := MustNewWorld(DefaultConfig(16))
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})
	dst := w.Addr(memoProbeResolver(b, w))
	ctx := context.Background()
	for _, q := range []struct {
		name string
		qn   string
		typ  dnswire.Type
		rd   bool
	}{
		{"domain-A", "chase.com", dnswire.TypeA, true},
		{"snoop-NS", "com", dnswire.TypeNS, false},
	} {
		payload, err := dnswire.AppendQuery(nil, 0, q.rd, q.qn, q.typ, dnswire.ClassIN)
		if err != nil {
			b.Fatal(err)
		}
		dnswire.Encode0x20Bytes(dnswire.QueryNameWire(payload), 0x155, 9)
		for _, miss := range []bool{false, true} {
			name := q.name + "/hit"
			if miss {
				name = q.name + "/miss"
			}
			b.Run(name, func(b *testing.B) {
				tr.SetTime(memoHour(0))
				if err := sendOne(ctx, tr, dst, 53, 40000, payload); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					at := memoHour(0)
					if miss {
						at = memoHour(i + 1)
					}
					tr.SetTime(at)
					if err := sendOne(ctx, tr, dst, 53, 40000, payload); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
			})
		}
	}
}
