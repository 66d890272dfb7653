package snoop

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"goingwild/internal/domains"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// census sweeps a default world of the given order at week and returns
// its scanner, transport and NOERROR list.
func census(t *testing.T, order uint, week int) (*scanner.Scanner, *wildnet.MemTransport, []uint32) {
	t.Helper()
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	t.Cleanup(func() { tr.Close() })
	sc := scanner.New(tr, scanner.Options{Workers: 4, SettleDelay: time.Millisecond})
	tr.SetTime(wildnet.Time{Week: week})
	sweep, err := sc.SweepContext(context.Background(), order, 21, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	return sc, tr, sweep.NOERROR()
}

func runStudy(t *testing.T, order uint) (*Result, int) {
	t.Helper()
	cfg := DefaultConfig(domains.SnoopedTLDs)
	sc, tr, resolvers := census(t, order, cfg.Week)
	res, err := Run(context.Background(), sc, tr, resolvers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, len(resolvers)
}

func TestUtilizationStudyShape(t *testing.T) {
	res, scanned := runStudy(t, 16)
	if res.Scanned != scanned || scanned < 200 {
		t.Fatalf("scanned = %d", scanned)
	}
	respShare := float64(res.Responded) / float64(res.Scanned)
	if math.Abs(respShare-0.832) > 0.08 {
		t.Errorf("responded share = %.3f, want ≈ 0.832 (§2.6)", respShare)
	}
	inUse := float64(res.Counts[ClassInUse]) / float64(res.Scanned)
	if inUse < 0.45 || inUse > 0.75 {
		t.Errorf("in-use share = %.3f, want ≈ 0.616", inUse)
	}
	frequent := float64(res.Frequent) / float64(res.Scanned)
	if frequent < 0.25 || frequent > 0.50 {
		t.Errorf("frequent share = %.3f, want ≈ 0.387", frequent)
	}
	empty := float64(res.Counts[ClassEmpty]) / float64(res.Scanned)
	if empty < 0.03 || empty > 0.12 {
		t.Errorf("empty share = %.3f, want ≈ 0.073", empty)
	}
	static := float64(res.Counts[ClassStaticTTL]) / float64(res.Scanned)
	if static < 0.01 || static > 0.08 {
		t.Errorf("static share = %.3f, want ≈ 0.040", static)
	}
	resetting := float64(res.Counts[ClassResetting]) / float64(res.Scanned)
	if resetting < 0.08 || resetting > 0.30 {
		t.Errorf("resetting share = %.3f, want ≈ 0.196", resetting)
	}
	// In-use must dominate, frequent a large subset of it, as in §2.6.
	if res.Frequent > res.Counts[ClassInUse] {
		t.Error("frequent exceeds in-use")
	}
	if res.Counts[ClassInUse] <= res.Counts[ClassResetting] {
		t.Error("in-use not the dominant class")
	}
}

// TestRoundErrorsSurface: a TLD the encoder refuses fails its round, and
// both studies stop there and return the error beside what they gathered
// — the hourly study its verdicts over the rounds before the failure.
func TestRoundErrorsSurface(t *testing.T) {
	cfg := DefaultConfig([]string{"com", "a..b"})
	cfg.Hours = 3
	sc, tr, resolvers := census(t, 14, cfg.Week)
	res, err := Run(context.Background(), sc, tr, resolvers, cfg)
	if err == nil {
		t.Error("Run over an unencodable TLD returned no error")
	}
	if res == nil || res.Scanned != len(resolvers) || res.Responded == 0 {
		t.Errorf("Run kept no partial result: %+v", res)
	}
	pcfg := DefaultPopularityConfig()
	pcfg.TLD, pcfg.Minutes = "a..b", 3
	if _, err := EstimatePopularity(context.Background(), sc, tr, resolvers, pcfg); err == nil {
		t.Error("EstimatePopularity over an unencodable TLD returned no error")
	}
}

func TestClassifySynthetic(t *testing.T) {
	cfg := DefaultConfig([]string{"com", "net", "org", "de"})
	mk := func(perTLD ...[]scanner.SnoopObs) [][]obs {
		out := make([][]obs, len(perTLD))
		for ti, series := range perTLD {
			for h, o := range series {
				out[ti] = append(out[ti], obs{hour: h, o: o})
			}
		}
		return out
	}
	cached := func(ttl uint32) scanner.SnoopObs {
		return scanner.SnoopObs{Answered: true, Cached: true, TTL: ttl}
	}
	empty := scanner.SnoopObs{Answered: true, Empty: true}

	// All-empty responder.
	v := classify(mk(
		[]scanner.SnoopObs{empty, empty, empty},
		[]scanner.SnoopObs{empty, empty},
		nil, nil,
	), cfg)
	if v.Addr != ClassEmpty {
		t.Errorf("all-empty = %v", v.Addr)
	}

	// Unreachable.
	v = classify(mk(nil, nil, nil, nil), cfg)
	if v.Addr != ClassUnreachable {
		t.Errorf("unreachable = %v", v.Addr)
	}

	// Static TTL.
	st := []scanner.SnoopObs{cached(300), cached(300), cached(300), cached(300), cached(300)}
	v = classify(mk(st, st, nil, nil), cfg)
	if v.Addr != ClassStaticTTL {
		t.Errorf("static = %v", v.Addr)
	}

	// In-use with immediate refresh: 6h TTL, hourly probes; after the
	// wrap the TTL is exactly consistent with immediate re-caching.
	base := cfg.BaseTTL
	series := make([]scanner.SnoopObs, 0, 10)
	rem := base - 100
	for h := 0; h < 10; h++ {
		series = append(series, cached(rem))
		if rem <= 3600 {
			rem = rem + base - 3600 // immediate refresh at expiry
		} else {
			rem -= 3600
		}
	}
	v = classify(mk(series, series, series, series), cfg)
	if v.Addr != ClassInUse || !v.FastRefresh {
		t.Errorf("fast in-use = %v fast=%v", v.Addr, v.FastRefresh)
	}

	// Decreasing-only: a 48h TTL never expires inside the window.
	long := make([]scanner.SnoopObs, 0, 10)
	remL := uint32(48 * 3600)
	for h := 0; h < 10; h++ {
		long = append(long, cached(remL))
		remL -= 3600
	}
	v = classify(mk(long, long, nil, nil), cfg)
	if v.Addr != ClassDecreasing {
		t.Errorf("decreasing = %v", v.Addr)
	}

	// Resetting: always near-max TTL.
	resetting := []scanner.SnoopObs{
		cached(base - 10), cached(base - 200), cached(base - 40),
		cached(base - 300), cached(base - 60), cached(base - 90),
	}
	v = classify(mk(resetting, resetting, resetting, nil), cfg)
	if v.Addr != ClassResetting {
		t.Errorf("resetting = %v", v.Addr)
	}

	// Single response then stop.
	v = classify(mk(
		[]scanner.SnoopObs{cached(500)},
		[]scanner.SnoopObs{cached(900)},
		nil, nil,
	), cfg)
	if v.Addr != ClassSingleStop {
		t.Errorf("single-stop = %v", v.Addr)
	}
}

func TestInUseThreshold(t *testing.T) {
	// Fewer than MinRefreshTLDs re-adds must not flag in-use: other
	// scanners' probes refresh one or two TLDs too (§2.6 requires 3).
	cfg := DefaultConfig([]string{"com", "net", "org", "de", "fr"})
	base := cfg.BaseTTL
	cached := func(ttl uint32) scanner.SnoopObs {
		return scanner.SnoopObs{Answered: true, Cached: true, TTL: ttl}
	}
	refreshing := []scanner.SnoopObs{cached(1800), cached(base - 1800), cached(base - 5400)}
	cold := []scanner.SnoopObs{cached(5000), cached(5000 - 3600)}
	hist := [][]obs{}
	for ti, series := range [][]scanner.SnoopObs{refreshing, refreshing, cold, cold, cold} {
		var h []obs
		for k, o := range series {
			h = append(h, obs{hour: k, o: o})
		}
		_ = ti
		hist = append(hist, h)
	}
	v := classify(hist, cfg)
	if v.Addr == ClassInUse {
		t.Errorf("2 refreshed TLDs flagged in-use (threshold is %d)", cfg.MinRefreshTLDs)
	}
}

// TestRunIndependentOfDeliveryOrder is the repeat-run guard for the
// round's by-source filing. At this seed and order, source 0.1.130.153
// answers twice per round — for itself and for the mis-sourced
// 0.1.130.216 — so a first-writer-wins round classified it by whichever
// sender got there first. Walking the resolver list forwards and
// backwards on one worker delivers the two answers in both orders; eight
// racing workers add the schedule. Every run must reach the same
// verdicts.
func TestRunIndependentOfDeliveryOrder(t *testing.T) {
	const order, week = 18, 9
	wc := wildnet.DefaultConfig(order)
	wc.Seed = 126450538
	w, err := wildnet.NewWorld(wc)
	if err != nil {
		t.Fatal(err)
	}
	study := func(workers int, reverse bool) *Result {
		tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
		defer tr.Close()
		sc := scanner.New(tr, scanner.Options{Workers: workers, SettleDelay: -1})
		at := wildnet.Time{Week: week}
		tr.SetTime(at)
		sweep, err := sc.SweepContext(context.Background(), order, 21, w.ScanBlacklist())
		if err != nil {
			t.Fatal(err)
		}
		// Only a mis-sourced resolver can make a /24 neighbour answer
		// twice, so the study keeps just the blocks that hold one.
		open := sweep.NOERROR()
		shared := map[uint32]bool{}
		for _, u := range open {
			if p, ok := w.ProfileAt(u, at); ok && p.MisSourced {
				shared[u>>8] = true
			}
		}
		var resolvers []uint32
		for _, u := range open {
			if shared[u>>8] {
				resolvers = append(resolvers, u)
			}
		}
		if len(resolvers) < 50 {
			t.Fatalf("only %d resolvers share a block with a mis-sourced one", len(resolvers))
		}
		if reverse {
			slices.Reverse(resolvers)
		}
		cfg := DefaultConfig(domains.SnoopedTLDs)
		cfg.Week = week
		res, err := Run(context.Background(), sc, tr, resolvers, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := study(1, false)
	for _, c := range []struct {
		workers int
		reverse bool
	}{{1, true}, {8, false}} {
		got := study(c.workers, c.reverse)
		for u, v := range want.Verdicts {
			if got.Verdicts[u] != v {
				t.Errorf("workers=%d reverse=%v: %#x classified %v, want %v", c.workers, c.reverse, u, got.Verdicts[u], v)
			}
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("workers=%d reverse=%v: counts %v, want %v", c.workers, c.reverse, got.Counts, want.Counts)
		}
	}
}
