package wildnet

import (
	"math"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
)

func TestASNOfSeparatesCDNNodes(t *testing.T) {
	w := testWorld(t, 16)
	// CDN nodes must scatter across many ASes (the prefiltering
	// difficulty of §3.4).
	ases := map[uint32]bool{}
	for i := 0; i < 200; i++ {
		ases[w.ASNOf(w.RoleAddr(RoleCDNNode, i))] = true
	}
	if len(ases) < 30 {
		t.Errorf("CDN nodes span only %d ASes, want ≥30", len(ases))
	}
	// Site-host slots of one domain share an AS neighborhood.
	legit, _ := w.LegitAddrs("chase.com", "DE")
	for _, a := range legit[1:] {
		if w.ASNOf(a) != w.ASNOf(legit[0]) {
			t.Errorf("ordinary domain hosting split across ASes: %d vs %d",
				w.ASNOf(a), w.ASNOf(legit[0]))
		}
	}
	// Resolver space follows the geographic registry.
	u := uint32(1234)
	if w.ASNOf(u) != w.Geo().LookupU32(u).AS.ASN {
		t.Error("resolver-space ASN diverges from registry")
	}
}

func TestSignedZonesCoverScenario(t *testing.T) {
	w := testWorld(t, 16)
	for _, name := range []string{domains.GroundTruth, "wikileaks.org", "paypal.com"} {
		if _, ok := w.SignedZone(name); !ok {
			t.Errorf("%s unsigned", name)
		}
		pub, ok := w.ZonePublicKey(name)
		if !ok || len(pub) == 0 {
			t.Errorf("%s has no public key", name)
		}
	}
	if _, ok := w.SignedZone("facebook.com"); ok {
		t.Error("facebook.com must stay unsigned for the race experiment")
	}
	// Signing is deterministic.
	a, _ := w.ZonePublicKey("paypal.com")
	b, _ := w.ZonePublicKey("paypal.com")
	if string(a) != string(b) {
		t.Error("zone key not stable")
	}
}

func TestScanBlacklistCoversInfra(t *testing.T) {
	w := testWorld(t, 16)
	bl := w.ScanBlacklist()
	base, size := w.InfraRange()
	if bl.Size() != uint64(size) {
		t.Errorf("blacklist size %d, want %d", bl.Size(), size)
	}
	if !bl.ContainsU32(base) || !bl.ContainsU32(base+size-1) {
		t.Error("infra endpoints not blacklisted")
	}
	if bl.ContainsU32(base - 1) {
		t.Error("resolver space blacklisted")
	}
}

func TestAmpClassMarginals(t *testing.T) {
	w := testWorld(t, 18)
	counts := map[AmpClass]int{}
	total := 0
	for u := uint32(0); u < 1<<18; u++ {
		if c, ok := w.AmpClassAt(u, At(0)); ok {
			counts[c]++
			total++
		}
	}
	if total < 1000 {
		t.Fatalf("population %d", total)
	}
	checks := []struct {
		class AmpClass
		want  float64
	}{
		{AmpLarge, 0.10}, {AmpModerate, 0.40}, {AmpMinimal, 0.45}, {AmpRefusesANY, 0.05},
	}
	for _, c := range checks {
		got := float64(counts[c.class]) / float64(total)
		if math.Abs(got-c.want) > 0.04 {
			t.Errorf("amp class %d share = %.3f, want %.2f", c.class, got, c.want)
		}
	}
}

func TestANYResponseSizes(t *testing.T) {
	w := testWorld(t, 17)
	findClass := func(want AmpClass) uint32 {
		for u := uint32(0); u < 1<<17; u++ {
			p, ok := w.ProfileAt(u, At(0))
			if !ok || p.RCode != RCNoError {
				continue
			}
			if c, _ := w.AmpClassAt(u, At(0)); c == want {
				return u
			}
		}
		t.Fatalf("no resolver of amp class %d", want)
		return 0
	}
	sizeOf := func(u uint32) int {
		q := dnswire.NewQuery(1, "chase.com", dnswire.TypeANY, dnswire.ClassIN)
		resps := handle(w, VantagePrimary, 4000, u, q, At(0))
		if len(resps) == 0 {
			t.Fatalf("no ANY response from %d", u)
		}
		wire, err := resps[0].Msg.PackBytes()
		if err != nil {
			t.Fatal(err)
		}
		return len(wire)
	}
	minimal := sizeOf(findClass(AmpMinimal))
	moderate := sizeOf(findClass(AmpModerate))
	large := sizeOf(findClass(AmpLarge))
	if !(large > moderate && moderate > minimal) {
		t.Errorf("ANY size ordering broken: %d / %d / %d", minimal, moderate, large)
	}
	if large < minimal*10 {
		t.Errorf("large amplifier only %dx the minimal response", large/minimal)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tt := Time{Week: 2, Day: 3, Hour: 5, Minute: 30}
	if tt.AbsDay() != 17 {
		t.Errorf("AbsDay = %d", tt.AbsDay())
	}
	if tt.AbsHour() != 17*24+5 {
		t.Errorf("AbsHour = %d", tt.AbsHour())
	}
	if tt.AbsSeconds() != int64(17*24+5)*3600+1800 {
		t.Errorf("AbsSeconds = %d", tt.AbsSeconds())
	}
}

func TestExpectedPopulationTracksDecline(t *testing.T) {
	w := testWorld(t, 18)
	if w.ExpectedPopulation(At(55)) >= w.ExpectedPopulation(At(0)) {
		t.Error("expected population does not decline")
	}
}

func TestUDPPayloadLimitSemantics(t *testing.T) {
	w := testWorld(t, 17)
	var large, minimal uint32
	haveLarge, haveMinimal := false, false
	for u := uint32(0); u < 1<<17 && !(haveLarge && haveMinimal); u++ {
		c, ok := w.AmpClassAt(u, At(0))
		if !ok {
			continue
		}
		if c == AmpLarge && !haveLarge {
			large, haveLarge = u, true
		}
		if c == AmpMinimal && !haveMinimal {
			minimal, haveMinimal = u, true
		}
	}
	if !haveLarge || !haveMinimal {
		t.Fatal("amp classes not found")
	}
	plain := dnswire.NewQuery(1, "chase.com", dnswire.TypeANY, dnswire.ClassIN)
	edns := dnswire.NewQuery(1, "chase.com", dnswire.TypeANY, dnswire.ClassIN)
	edns.AddEDNS(4096)
	huge := dnswire.NewQuery(1, "chase.com", dnswire.TypeANY, dnswire.ClassIN)
	huge.AddEDNS(65000)

	limit := func(u uint32, q *dnswire.Message) int {
		size, hasEDNS := q.EDNSPayloadSize()
		return w.udpPayloadLimit(u, size, hasEDNS, At(0))
	}
	if got := limit(large, plain); got != dnswire.MaxUDPSize {
		t.Errorf("no-EDNS limit = %d, want 512", got)
	}
	if got := limit(large, edns); got != 4096 {
		t.Errorf("EDNS limit on large amp = %d, want 4096", got)
	}
	if got := limit(large, huge); got != 4096 {
		t.Errorf("advertised size not capped: %d", got)
	}
	if got := limit(minimal, edns); got != dnswire.MaxUDPSize {
		t.Errorf("EDNS honored by non-EDNS resolver: %d", got)
	}
}
