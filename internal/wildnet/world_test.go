package wildnet

import (
	"math"
	"testing"

	"goingwild/internal/geodb"
)

func testWorld(t testing.TB, order uint) *World {
	t.Helper()
	w, err := NewWorld(DefaultConfig(order))
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Order: 8, Seed: 1},
		{Order: 33, Seed: 1},
	} {
		if _, err := NewWorld(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestPopulationDensityNearTarget(t *testing.T) {
	w := testWorld(t, 18)
	var count int
	for u := uint32(0); u < 1<<18; u++ {
		if w.ResolverAt(u, At(0)) {
			count++
		}
	}
	want := baseDensity * float64(w.SpaceSize())
	if math.Abs(float64(count)-want) > want*0.25 {
		t.Errorf("week-0 population = %d, want ≈ %.0f", count, want)
	}
}

func TestPopulationDeclines(t *testing.T) {
	w := testWorld(t, 18)
	count := func(week int) int {
		n := 0
		for u := uint32(0); u < 1<<18; u += 3 {
			if w.ResolverAt(u, At(week)) {
				n++
			}
		}
		return n
	}
	w0, w55 := count(0), count(55)
	ratio := float64(w55) / float64(w0)
	if ratio < 0.60 || ratio > 0.85 {
		t.Errorf("population ratio week55/week0 = %.2f, want ≈ 0.72", ratio)
	}
}

func TestChurnCohortSurvival(t *testing.T) {
	w := testWorld(t, 18)
	var cohort []uint32
	for u := uint32(0); u < 1<<18; u++ {
		if w.ResolverAt(u, At(0)) {
			cohort = append(cohort, u)
		}
	}
	if len(cohort) < 500 {
		t.Fatalf("cohort too small: %d", len(cohort))
	}
	surviving := func(tt Time) float64 {
		n := 0
		for _, u := range cohort {
			if w.ResolverAt(u, tt) {
				n++
			}
		}
		return float64(n) / float64(len(cohort))
	}
	// >40% disappear within the first day (§2.5).
	day1 := surviving(Time{Week: 0, Day: 1})
	if day1 > 0.62 || day1 < 0.45 {
		t.Errorf("day-1 survival = %.2f, want ≈ 0.55 (>40%% gone)", day1)
	}
	// 52.2% disappear within one week.
	week1 := surviving(At(1))
	if week1 < 0.40 || week1 > 0.56 {
		t.Errorf("week-1 survival = %.2f, want ≈ 0.48", week1)
	}
	// ≈4% remain after 55 weeks.
	week55 := surviving(At(55))
	if week55 < 0.015 || week55 > 0.09 {
		t.Errorf("week-55 survival = %.3f, want ≈ 0.04", week55)
	}
	// Monotone-ish decline: later scans see fewer survivors.
	if !(day1 >= week1 && week1 >= week55) {
		t.Errorf("survival not declining: %v %v %v", day1, week1, week55)
	}
}

func TestDeterminism(t *testing.T) {
	a := testWorld(t, 16)
	b := testWorld(t, 16)
	for u := uint32(0); u < 1<<16; u += 7 {
		if a.ResolverAt(u, At(3)) != b.ResolverAt(u, At(3)) {
			t.Fatalf("existence differs at %d", u)
		}
		pa, oka := a.ProfileAt(u, At(3))
		pb, okb := b.ProfileAt(u, At(3))
		if oka != okb || pa != pb {
			t.Fatalf("profile differs at %d", u)
		}
	}
}

func TestProfileMarginals(t *testing.T) {
	w := testWorld(t, 18)
	var total, refused, servfail, tcp, versioned, chaosErr, missrc int
	for u := uint32(0); u < 1<<18; u++ {
		p, ok := w.ProfileAt(u, At(0))
		if !ok {
			continue
		}
		total++
		switch p.RCode {
		case RCRefused:
			refused++
		case RCServFail:
			servfail++
		}
		if p.DeviceIdx >= 0 {
			tcp++
		}
		switch p.Chaos {
		case ChaosVersioned:
			versioned++
		case ChaosError:
			chaosErr++
		}
		if p.MisSourced {
			missrc++
		}
	}
	if total < 1000 {
		t.Fatalf("population too small: %d", total)
	}
	checks := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"REFUSED", float64(refused) / float64(total), 0.080, 0.02},
		{"TCP-responsive", float64(tcp) / float64(total), 0.263, 0.03},
		{"CHAOS versioned", float64(versioned) / float64(total), 0.339, 0.03},
		{"CHAOS error", float64(chaosErr) / float64(total), 0.427, 0.03},
		{"mis-sourced", float64(missrc) / float64(total), 0.027, 0.01},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s share = %.3f, want ≈ %.3f", c.name, c.got, c.want)
		}
	}
	sf := float64(servfail) / float64(total)
	if sf < 0.01 || sf > 0.08 {
		t.Errorf("SERVFAIL share = %.3f, want within the 2–7%% wobble band", sf)
	}
}

func TestSERVFAILFluctuates(t *testing.T) {
	lo, hi := 1.0, 0.0
	for week := 0; week < 55; week++ {
		s := servFailShare(week)
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi/lo < 2.0 {
		t.Errorf("SERVFAIL wobble %.3f–%.3f too flat (paper: 0.63M–2.14M)", lo, hi)
	}
	if lo <= 0 {
		t.Errorf("SERVFAIL share went non-positive: %f", lo)
	}
}

func TestStationsAlwaysResolve(t *testing.T) {
	w := testWorld(t, 18)
	if len(w.stations) == 0 {
		t.Fatal("no rare-behavior stations")
	}
	for u, m := range w.stations {
		if !w.ResolverAt(u, At(50)) {
			t.Errorf("station %d (%d) not resolving", u, m)
		}
		p, ok := w.ProfileAt(u, At(50))
		if !ok || p.Manip != m {
			t.Errorf("station %d profile = %+v, want manip %d", u, p, m)
		}
	}
	// Proxy-plain dominates the rare population, as in §4.3.
	if w.StationCount(ManipProxyPlain) <= w.StationCount(ManipProxyTLS) {
		t.Error("proxy-plain stations not more numerous than proxy-TLS")
	}
}

func TestFatedNetworksDisappearFromPrimaryVantage(t *testing.T) {
	w := testWorld(t, 18)
	var as *geodb.AS
	for i := range w.geo.ASes() {
		if w.geo.ASes()[i].Fate == geodb.FateBlocksScanner {
			as = &w.geo.ASes()[i]
			break
		}
	}
	if as == nil {
		t.Fatal("no blocking AS found")
	}
	// Find an address in that AS hosting a resolver before the fate week.
	var target uint32
	found := false
	for u := uint32(0); u < 1<<18; u++ {
		loc := w.geo.LookupU32(u)
		if loc.AS.ASN == as.ASN && w.ResolverAt(u, At(0)) && w.stabilityOf(u) == StabilityStatic {
			target, found = u, true
			break
		}
	}
	if !found {
		t.Skip("no static resolver in the fated AS at this order/seed")
	}
	after := At(as.FateWeek + 1)
	if w.VisibleFrom(target, VantagePrimary, after) {
		t.Error("fated network still visible from primary vantage")
	}
	if !w.VisibleFrom(target, VantageSecondary, after) {
		t.Error("fated network invisible from secondary vantage too")
	}
}

func TestInfraRolesDisjointAndComplete(t *testing.T) {
	w := testWorld(t, 16)
	base := w.infra.base
	prev := RoleNone
	for u := base; u != 0; u++ { // wraps at 2^32 but masked below
		if w.Mask(u) < base {
			break
		}
		role, _ := w.RoleOf(u)
		if role == RoleNone {
			t.Fatalf("infra address %d has no role (prev %v)", u, prev)
		}
		prev = role
		if u == base+w.infra.total-1 {
			break
		}
	}
	if got, _ := w.RoleOf(base - 1); got != RoleNone {
		t.Errorf("address below infra base got role %v", got)
	}
}

func TestCensorPageAllocation(t *testing.T) {
	w := testWorld(t, 16)
	n := w.ActiveCensorPages()
	if n < 200 || n > 400 {
		t.Errorf("active censor pages = %d, want ≈ 299", n)
	}
	for _, cc := range []string{"CN", "IR", "ID", "TR"} {
		a := w.CensorPageAddr(cc, 0)
		if a == 0 {
			t.Errorf("no landing page for %s", cc)
		}
		role, slot := w.RoleOf(a)
		if role != RoleCensorPage {
			t.Errorf("landing page for %s has role %v", cc, role)
		}
		if got := CensorPageCountry(slot); got != cc {
			t.Errorf("landing slot %d maps back to %s, want %s", slot, got, cc)
		}
	}
	if a := w.CensorPageAddr("US", 0); a != 0 {
		t.Error("non-censoring country got a landing page")
	}
}

func TestRareStationCountsScale(t *testing.T) {
	w := testWorld(t, 16)
	for _, rs := range rareStations {
		n := w.StationCount(rs.manip)
		if n < minStationCount {
			t.Errorf("station class %d has %d members, want ≥ %d", rs.manip, n, minStationCount)
		}
	}
}
