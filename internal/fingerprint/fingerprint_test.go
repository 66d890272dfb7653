package fingerprint

import (
	"context"
	"math"
	"testing"
	"time"

	"goingwild/internal/devices"
	"goingwild/internal/dnswire"
	"goingwild/internal/scanner"
	"goingwild/internal/software"
	"goingwild/internal/wildnet"
)

func TestParseChaosClasses(t *testing.T) {
	cases := []struct {
		name string
		a    scanner.ChaosAnswer
		want ChaosOutcome
	}{
		{"silent", scanner.ChaosAnswer{}, ChaosSilent},
		{"errors", scanner.ChaosAnswer{
			BindAnswered: true, BindRCode: dnswire.RCodeRefused,
			ServerAnswered: true, ServerRCode: dnswire.RCodeServFail,
		}, ChaosErrors},
		{"no version", scanner.ChaosAnswer{
			BindAnswered: true, BindRCode: dnswire.RCodeNoError,
			ServerAnswered: true, ServerRCode: dnswire.RCodeNoError,
		}, ChaosNoVersion},
		{"hidden", scanner.ChaosAnswer{
			BindAnswered: true, BindRCode: dnswire.RCodeNoError, BindText: "go away",
		}, ChaosHiddenStr},
		{"bind version", scanner.ChaosAnswer{
			BindAnswered: true, BindRCode: dnswire.RCodeNoError, BindText: "9.8.2",
		}, ChaosVersion},
		{"dnsmasq", scanner.ChaosAnswer{
			BindAnswered: true, BindRCode: dnswire.RCodeNoError, BindText: "dnsmasq-2.40",
		}, ChaosVersion},
	}
	for _, c := range cases {
		got, _ := ParseChaos(&c.a)
		if got != c.want {
			t.Errorf("%s: outcome = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestParseVersionStringIdentifiesCatalog(t *testing.T) {
	for i, e := range software.Catalog {
		id, ok := parseVersionString(e.Bind)
		if !ok {
			t.Errorf("catalog entry %q not parsed", e.Bind)
			continue
		}
		if id.CatalogIdx != i {
			t.Errorf("%q resolved to catalog %d, want %d", e.Bind, id.CatalogIdx, i)
		}
		if id.Vendor != e.Vendor {
			t.Errorf("%q vendor = %q, want %q", e.Bind, id.Vendor, e.Vendor)
		}
	}
}

func TestParseVersionSuffixNormalization(t *testing.T) {
	id, ok := parseVersionString("9.8.2rc1-RedHat-9.8.2-0.10.rc1.el6")
	if !ok || id.Vendor != "BIND" {
		t.Fatalf("suffixed BIND not parsed: %+v %v", id, ok)
	}
	if !ok || id.Version[:5] != "9.8.2" {
		t.Errorf("version = %q", id.Version)
	}
}

func TestHiddenStringsNotParsed(t *testing.T) {
	for _, s := range software.HiddenStrings {
		if s == "9.9.9" {
			continue // deliberately ambiguous decoy: parses as a BIND version
		}
		if id, ok := parseVersionString(s); ok {
			t.Errorf("hidden string %q parsed as %+v", s, id)
		}
	}
}

func TestClassifyBannersCatalogRecovery(t *testing.T) {
	// Every catalog model with a token must be classified into its own
	// hardware and OS category by the regex DB.
	misses := 0
	for _, m := range devices.Catalog {
		id := ClassifyBanners(m.Banners)
		if !id.Responsive {
			t.Errorf("%s: no banners grabbed", m.Name)
			continue
		}
		if m.Name == "unknown-blob" || m.Name == "unknown-telnet" {
			if id.Hardware != devices.HWUnknown || id.OS != devices.OSUnknown {
				t.Errorf("%s misclassified as %s/%s", m.Name, id.Hardware, id.OS)
			}
			continue
		}
		if id.Hardware != m.Hardware || id.OS != m.OS {
			t.Errorf("%s classified as %s/%s, want %s/%s", m.Name, id.Hardware, id.OS, m.Hardware, m.OS)
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d models misclassified", misses)
	}
}

func TestDreamboxWorkedExample(t *testing.T) {
	id := ClassifyBanners(map[devices.Proto]string{devices.ProtoTelnet: "dm500plus login:"})
	if id.Hardware != devices.HWDVR || id.OS != devices.OSLinux {
		t.Errorf("dm500plus token gave %s/%s, want DVR/Linux (§2.4)", id.Hardware, id.OS)
	}
}

type worldBanners struct {
	w *wildnet.World
	t wildnet.Time
}

func (s worldBanners) Banner(addr uint32, proto devices.Proto) (string, bool) {
	return s.w.ServiceBanner(addr, proto, s.t)
}

func TestSurveyMatchesTable4Shape(t *testing.T) {
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(19))
	if err != nil {
		t.Fatal(err)
	}
	var resolvers []uint32
	for u := uint32(0); u < 1<<19; u++ {
		if w.ResolverAt(u, wildnet.At(46)) {
			resolvers = append(resolvers, u)
		}
	}
	s := SurveyDevices(worldBanners{w, wildnet.At(46)}, resolvers)
	respShare := float64(s.Responsive) / float64(s.Scanned)
	if math.Abs(respShare-0.263) > 0.04 {
		t.Errorf("TCP-responsive share = %.3f, want ≈ 0.263", respShare)
	}
	router := float64(s.Hardware[devices.HWRouter]) / float64(s.Responsive)
	if math.Abs(router-0.341) > 0.05 {
		t.Errorf("router share = %.3f, want ≈ 0.341", router)
	}
	zynos := float64(s.OS[devices.OSZyNOS]) / float64(s.Responsive)
	if math.Abs(zynos-0.166) > 0.04 {
		t.Errorf("ZyNOS share = %.3f, want ≈ 0.166", zynos)
	}
	unknown := float64(s.Hardware[devices.HWUnknown]) / float64(s.Responsive)
	if math.Abs(unknown-0.293) > 0.06 {
		t.Errorf("unknown-hardware share = %.3f, want ≈ 0.293", unknown)
	}
}

func TestChaosSurveyMatchesTable3Shape(t *testing.T) {
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(18))
	if err != nil {
		t.Fatal(err)
	}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer tr.Close()
	sc := scanner.New(tr, scanner.Options{Workers: 4, SettleDelay: time.Millisecond})
	sweep, err := sc.SweepContext(context.Background(), 18, 17, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := sc.ScanChaosContext(context.Background(), sweep.NOERROR())
	if err != nil {
		t.Fatal(err)
	}
	s := SurveyChaos(chaos)
	if s.Responded == 0 {
		t.Fatal("no CHAOS responders")
	}
	if v := s.VersionedShare(); math.Abs(v-0.339) > 0.05 {
		t.Errorf("versioned share = %.3f, want ≈ 0.339", v)
	}
	errShare := float64(s.Outcomes[ChaosErrors]) / float64(s.Responded)
	if math.Abs(errShare-0.427) > 0.05 {
		t.Errorf("error share = %.3f, want ≈ 0.427", errShare)
	}
	// BIND must dominate the versioned population (60.2%).
	versioned := s.Outcomes[ChaosVersion]
	bind := s.VendorTotals["BIND"]
	if frac := float64(bind) / float64(versioned); math.Abs(frac-0.602) > 0.08 {
		t.Errorf("BIND share = %.3f, want ≈ 0.602", frac)
	}
	// The single most common version must be BIND 9.8.2 (Table 3).
	bestName, bestCount := "", 0
	for name, n := range s.Versions {
		if n > bestCount {
			bestName, bestCount = name, n
		}
	}
	if bestName != "BIND 9.8.2" {
		t.Errorf("top version = %s (%d), want BIND 9.8.2", bestName, bestCount)
	}
}

func TestRuleCountNontrivial(t *testing.T) {
	if RuleCount() < 25 {
		t.Errorf("device DB has only %d rules", RuleCount())
	}
}

// TestSurveySeedRobustness guards against seed-overfitting: the Table-3
// shape must hold for worlds the tuning never saw.
func TestSurveySeedRobustness(t *testing.T) {
	for _, seed := range []uint64{0xA11CE, 0xB0B, 0xFEED5EED} {
		cfg := wildnet.DefaultConfig(17)
		cfg.Seed = seed
		w, err := wildnet.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
		sc := scanner.New(tr, scanner.Options{Workers: 4, SettleDelay: scanner.NoSettle})
		sweep, err := sc.SweepContext(context.Background(), 17, uint32(seed), w.ScanBlacklist())
		if err != nil {
			t.Fatal(err)
		}
		chaos, err := sc.ScanChaosContext(context.Background(), sweep.NOERROR())
		if err != nil {
			t.Fatal(err)
		}
		s := SurveyChaos(chaos)
		if v := s.VersionedShare(); math.Abs(v-0.339) > 0.06 {
			t.Errorf("seed %#x: versioned share = %.3f", seed, v)
		}
		versioned := s.Outcomes[ChaosVersion]
		if versioned > 0 {
			bind := float64(s.VendorTotals["BIND"]) / float64(versioned)
			if math.Abs(bind-0.602) > 0.10 {
				t.Errorf("seed %#x: BIND share = %.3f", seed, bind)
			}
		}
		tr.Close()
	}
}
