package geodb

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"
)

// mustBuild is Build that panics on error, for statically valid orders.
func mustBuild(order uint, seed uint64) *DB {
	db, err := Build(order, seed)
	if err != nil {
		panic(err)
	}
	return db
}

func TestBuildRejectsBadOrder(t *testing.T) {
	for _, order := range []uint{0, 9, 33} {
		if _, err := Build(order, 1); err == nil {
			t.Errorf("order %d accepted", order)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := mustBuild(20, 7)
	b := mustBuild(20, 7)
	for u := uint32(0); u < 1<<20; u += 4099 {
		la, lb := a.LookupU32(u), b.LookupU32(u)
		if la.Country != lb.Country || la.AS.ASN != lb.AS.ASN {
			t.Fatalf("lookup(%d) differs between identical builds", u)
		}
	}
}

func TestLookupConsistentWithinBlock(t *testing.T) {
	db := mustBuild(20, 3)
	blockSize := uint32(1) << (20 - 12)
	base := 17 * blockSize
	first := db.LookupU32(base)
	for off := uint32(1); off < blockSize; off += 13 {
		if got := db.LookupU32(base + off); got.AS.ASN != first.AS.ASN {
			t.Fatalf("block split between ASes at offset %d", off)
		}
	}
}

func TestCountrySharesApproximateTable1(t *testing.T) {
	db := mustBuild(22, 11)
	counts := map[string]int{}
	const samples = 1 << 18
	for i := 0; i < samples; i++ {
		u := uint32(i) << 4 // stride through the space
		counts[db.LookupU32(u).Country]++
	}
	var total float64
	for _, c := range Countries {
		total += c.Week0
	}
	// The three biggest countries must appear within 3 percentage points
	// of their intended share (block granularity adds variance).
	for _, code := range []string{"US", "CN", "XO"} {
		want := Countries[CountryIndex[code]].Week0 / total
		got := float64(counts[code]) / samples
		if math.Abs(got-want) > 0.03 {
			t.Errorf("%s share = %.3f, want ≈ %.3f", code, got, want)
		}
	}
	// Ordering shape: US ahead of CN ahead of TR.
	if !(counts["US"] > counts["CN"]) {
		t.Errorf("US (%d) not ahead of CN (%d)", counts["US"], counts["CN"])
	}
	if !(counts["CN"] > counts["TR"]) {
		t.Errorf("CN (%d) not ahead of TR (%d)", counts["CN"], counts["TR"])
	}
}

func TestRIRMappingMatchesTable2Regions(t *testing.T) {
	cases := map[string]RIR{
		"US": ARIN, "CA": ARIN,
		"CN": APNIC, "IN": APNIC, "VN": APNIC, "JP": APNIC,
		"MX": LACNIC, "AR": LACNIC, "BR": LACNIC,
		"TR": RIPE, "IT": RIPE, "RU": RIPE, "IR": RIPE, "LB": RIPE,
		"EG": AFRINIC, "DZ": AFRINIC, "ZA": AFRINIC,
	}
	for code, want := range cases {
		if got := RIROf(code); got != want {
			t.Errorf("RIROf(%s) = %v, want %v", code, got, want)
		}
	}
}

func TestFatedNetworksPresent(t *testing.T) {
	db := mustBuild(20, 5)
	var blocks, filters, shutdowns int
	for _, as := range db.ASes() {
		switch as.Fate {
		case FateBlocksScanner:
			blocks++
		case FateFiltering:
			filters++
		case FateShutdown:
			shutdowns++
		}
	}
	if blocks != 21 || filters != 5 || shutdowns != 2 {
		t.Errorf("fates = %d/%d/%d, want 21/5/2", blocks, filters, shutdowns)
	}
}

func TestCollapseEventsPlanted(t *testing.T) {
	db := mustBuild(20, 5)
	var ar, kr *AS
	for i, as := range db.ASes() {
		if as.Collapse == nil {
			continue
		}
		switch as.Country {
		case "AR":
			ar = &db.ASes()[i]
		case "KR":
			kr = &db.ASes()[i]
		}
	}
	if ar == nil || ar.Collapse.Survive > 0.05 {
		t.Error("Argentinean collapse AS missing or too mild")
	}
	if kr == nil || kr.Collapse.Survive > 0.01 {
		t.Error("South Korean collapse AS missing or too mild")
	}
}

func TestWorldDeclineMonotone(t *testing.T) {
	prev := WorldDeclineAt(0)
	if math.Abs(prev-1.0) > 1e-9 {
		t.Fatalf("week 0 decline = %f, want 1", prev)
	}
	for w := 1; w <= 55; w++ {
		cur := WorldDeclineAt(w)
		if cur > prev+1e-9 {
			t.Fatalf("world population grew at week %d", w)
		}
		prev = cur
	}
	if end := WorldDeclineAt(55); end < 0.65 || end > 0.80 {
		t.Errorf("week 55 decline = %.3f, want ≈ 22.6/31.2 ≈ 0.72", end)
	}
}

func TestCountryDeclineMatchesTable1(t *testing.T) {
	cases := map[string]float64{
		"US": 1 - 0.142,
		"TW": 1 - 0.573,
		"IN": 1 + 0.127,
		"AR": 1 - 0.75,
		"LB": 1 + 0.767,
	}
	for code, want := range cases {
		got := CountryDeclineAt(code, 55)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("CountryDeclineAt(%s, 55) = %.3f, want %.3f", code, got, want)
		}
	}
}

func TestLookupFoldsOutOfSpaceAddresses(t *testing.T) {
	db := mustBuild(16, 9)
	f := func(u uint32) bool {
		loc := db.LookupU32(u)
		folded := db.LookupU32(u & 0xFFFF)
		return loc.AS.ASN == folded.AS.ASN
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupAddrForm(t *testing.T) {
	db := mustBuild(32, 1)
	addr := netip.MustParseAddr("93.184.216.34")
	loc := db.Lookup(addr)
	if loc.AS == nil || loc.Country == "" {
		t.Fatalf("lookup returned empty location: %+v", loc)
	}
	if loc.RIR != RIROf(loc.Country) {
		t.Errorf("RIR mismatch: %v vs %v", loc.RIR, RIROf(loc.Country))
	}
}

func TestRDNSTokens(t *testing.T) {
	db := mustBuild(20, 13)
	var withRDNS, dynamic, fromDynPool int
	for u := uint32(0); u < 1<<20; u += 257 {
		name := db.RDNSName(13, u)
		if name == "" {
			continue
		}
		withRDNS++
		if db.LookupU32(u).AS.DynamicPool {
			fromDynPool++
			if HasDynamicToken(name) {
				dynamic++
			}
		}
	}
	if withRDNS == 0 || fromDynPool == 0 {
		t.Fatal("no rDNS names generated")
	}
	frac := float64(dynamic) / float64(fromDynPool)
	if frac < 0.60 || frac > 0.80 {
		t.Errorf("dynamic-token share among pool hosts = %.2f, want ≈ 0.70", frac)
	}
}

func TestHasDynamicToken(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"1-2-3-4.dynamic.telecom-ar.example", true},
		{"host-1-2-3-4.broadband.isp.example", true},
		{"dsl-pool-7.provider.example", true},
		{"static-1-2-3-4.corp-us.example", false},
		{"mydynamicserver.example", false}, // token not delimited
		{"", false},
	}
	for _, c := range cases {
		if got := HasDynamicToken(c.name); got != c.want {
			t.Errorf("HasDynamicToken(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}
