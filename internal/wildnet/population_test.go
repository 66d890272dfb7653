package wildnet

import (
	"context"
	"fmt"
	"net/netip"
	"testing"

	"goingwild/internal/metrics"
	"goingwild/internal/prand"
)

// benchSeed is one of the repository benchmark's committed-baseline seeds
// (bench/baseline/set-a.json); the differential tests run on it as well as
// on the default world because the PR 11 snoop bug showed on it and on no
// small seed.
const benchSeed = 126450538

// stabilityRef and leaseEpochRef are stabilityOfDyn and leaseEpochDyn as
// they stood before the downward walk and the hash prefix: every draw a
// full three- or four-word prand call from the world seed, every week
// 1..t.Week drawn and the last hit kept. They are the oracle that pins
// "same function, bit for bit".
func stabilityRef(w *World, u uint32, dynamic bool) Stability {
	v := prand.UnitOf(w.cfg.Seed, facetStability, uint64(u))
	switch {
	case dynamic && v < 0.56, !dynamic && v < 0.10:
		return StabilityDaily
	case dynamic && v < 0.98, !dynamic && v < 0.80:
		return StabilityWeekly
	}
	return StabilityStatic
}

func leaseEpochRef(w *World, u uint32, t Time, dynamic bool) uint64 {
	switch stabilityRef(w, u, dynamic) {
	case StabilityDaily:
		if t.AbsHour() == 0 {
			return 1
		}
		phase := int(prand.Hash(w.cfg.Seed, facetSnoopHour, uint64(u)) % 24)
		return uint64((t.AbsHour()+phase)/24) + 1
	case StabilityWeekly:
		if t.Week <= 0 {
			return 0
		}
		rv := prand.UnitOf(w.cfg.Seed, facetRotate, uint64(u), 0xA77E)
		rot := 0.10 + 0.38*rv*rv
		var epoch uint64
		for k := 1; k <= t.Week; k++ {
			if prand.UnitOf(w.cfg.Seed, facetRotate, uint64(u), uint64(k)) < rot {
				epoch = uint64(k)
			}
		}
		return epoch
	default:
		return 0
	}
}

// TestLeaseEpochMatchesReference: the downward walk over a resumed hash
// prefix is the upward four-word loop, for every address of an order-17
// world (131 072), both pool kinds, early, benchmark and far-future
// weeks. Daily-lease addresses, whose epoch moves with the hour, are
// compared at hours on both sides of their day boundary; the other
// classes at the first and the last of those hours, which is enough to
// show the hour is ignored and keeps the week-500 oracle affordable.
func TestLeaseEpochMatchesReference(t *testing.T) {
	weeks := []int{0, 1, 2, 5, 9, 45, 55, 120, 500}
	if testing.Short() || raceEnabled {
		weeks = []int{0, 1, 2, 5, 9, 45, 55}
	}
	dailyHours, otherHours := []int{0, 1, 23, 24, 25}, []int{0, 25}
	for _, seed := range []uint64{DefaultConfig(17).Seed, benchSeed} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel() // the week-500 oracle is seconds of draws a seed
			cfg := DefaultConfig(17)
			cfg.Seed = seed
			w := MustNewWorld(cfg)
			classes := [3]int{}
			for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
				for _, dynamic := range []bool{false, true} {
					class := stabilityRef(w, u, dynamic)
					if got := w.stabilityOfDyn(u, dynamic); got != class {
						t.Fatalf("stabilityOfDyn(%#x, dynamic=%v) = %d, reference %d", u, dynamic, got, class)
					}
					classes[class]++
					hours := otherHours
					if class == StabilityDaily {
						hours = dailyHours
					}
					for _, week := range weeks {
						for _, hour := range hours {
							at := Time{Week: week, Hour: hour}
							if got, want := w.leaseEpochDyn(u, at, dynamic), leaseEpochRef(w, u, at, dynamic); got != want {
								t.Fatalf("leaseEpochDyn(%#x, week %d hour %d, dynamic=%v) = %d, reference %d",
									u, week, hour, dynamic, got, want)
							}
						}
					}
				}
			}
			for class, n := range classes {
				if n == 0 {
					t.Errorf("no address of stability class %d exercised", class)
				}
			}
		})
	}
}

// TestWorldHashPrefixes: pre[f] is the Hash chain stopped after (seed, f)
// for every facet tag (a tag past the table is a compile error at its
// constant index), so w.pre[f].Add(x).Unit() is prand.UnitOf(seed, f, x).
func TestWorldHashPrefixes(t *testing.T) {
	for _, seed := range []uint64{DefaultConfig(14).Seed, benchSeed} {
		cfg := DefaultConfig(14)
		cfg.Seed = seed
		w := MustNewWorld(cfg)
		for f := range w.pre {
			if w.pre[f] != prand.Start(seed, uint64(f)) {
				t.Errorf("seed %d: pre[%#x] != prand.Start(seed, %#x)", seed, f, f)
			}
			if got, want := w.pre[f].Add(0xBEEF).Unit(), prand.UnitOf(seed, uint64(f), 0xBEEF); got != want {
				t.Errorf("seed %d facet %#x: prefix draw %v, UnitOf %v", seed, f, got, want)
			}
		}
	}
}

// TestBlockCacheTwoTransports: wildsvc runs a sweeper and a demand prober
// over one World on different weeks. Two transports pinned four weeks
// apart take turns for 100 sends each; each week's block table is built
// once, not once per turn.
func TestBlockCacheTwoTransports(t *testing.T) {
	reg := metrics.New()
	cfg := DefaultConfig(14)
	cfg.Metrics = reg
	w := MustNewWorld(cfg)
	sweeper, prober := NewMemTransport(w, VantagePrimary), NewMemTransport(w, VantagePrimary)
	sweeper.SetTime(At(9))
	prober.SetTime(At(5))
	for _, tr := range []*MemTransport{sweeper, prober} {
		tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})
	}
	ctx := context.Background()
	batch := make([]Probe, 16)
	for turn := 0; turn < 100; turn++ {
		for i := range batch {
			batch[i] = Probe{Dst: w.Addr(uint32(turn*len(batch) + i)), DstPort: 53, SrcPort: 40000}
		}
		for _, tr := range []*MemTransport{sweeper, prober} {
			if n, err := tr.SendBatch(ctx, batch); err != nil || n != len(batch) {
				t.Fatalf("turn %d: SendBatch = %d, %v", turn, n, err)
			}
		}
	}
	if got := reg.Snapshot().Counter("wildnet.blockcache.rebuilds"); got == 0 || got > 2 {
		t.Errorf("wildnet.blockcache.rebuilds = %d after two transports took 100 turns on weeks 9 and 5, want 1..2", got)
	}
	// A week that maps onto an occupied slot costs a rebuild and still
	// gets its own table.
	if c := w.blockCache(9 + blockCacheWeeks); c.week != 9+blockCacheWeeks {
		t.Errorf("colliding week got the table of week %d", c.week)
	}
	if c := w.blockCache(9); c.week != 9 {
		t.Errorf("week 9 after a collision got the table of week %d", c.week)
	}
}

var sinkClass sweepClass

// BenchmarkSweepClassify walks one order-20 space through the per-probe
// reject predicate at the first, an early, a late and a far-future week.
// One op is the whole walk; the figure to read is ns/probe, which must not
// grow with the week.
func BenchmarkSweepClassify(b *testing.B) {
	w := MustNewWorld(DefaultConfig(20))
	n := uint32(w.SpaceSize())
	for _, week := range []int{0, 5, 45, 500} {
		b.Run(fmt.Sprintf("week=%d", week), func(b *testing.B) {
			at := At(week)
			c := w.blockCache(week)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := uint32(0); u < n; u++ {
					sinkClass = w.sweepClassify(u, VantagePrimary, at, c)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/probe")
		})
	}
}
