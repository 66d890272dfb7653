package scanner

import (
	"context"
	"math"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

func testWorld(t testing.TB, order uint) (*wildnet.World, *wildnet.MemTransport) {
	t.Helper()
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	return w, wildnet.NewMemTransport(w, wildnet.VantagePrimary)
}

// chaosWorld is testWorld under a named fault profile.
func chaosWorld(t testing.TB, order uint, profile string) (*wildnet.World, *wildnet.MemTransport) {
	t.Helper()
	cfg := wildnet.DefaultConfig(order)
	cfg.Faults = wildnet.MustChaosProfile(profile)
	w, err := wildnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, wildnet.NewMemTransport(w, wildnet.VantagePrimary)
}

func testScanner(tr Transport) *Scanner {
	return New(tr, Options{Workers: 4, SettleDelay: time.Millisecond})
}

func TestSweepFindsPopulation(t *testing.T) {
	w, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	bl := w.ScanBlacklist()
	res, err := s.SweepContext(context.Background(), 16, 12345, bl)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(1<<16-1) - bl.Size(); res.Probed != want {
		t.Errorf("probed %d targets, want %d", res.Probed, want)
	}
	// Ground truth: count world resolvers directly.
	want := 0
	for u := uint32(1); u < 1<<16; u++ {
		if w.ResolverAt(u, wildnet.At(0)) && w.VisibleFrom(u, wildnet.VantagePrimary, wildnet.At(0)) {
			want++
		}
	}
	got := res.Total()
	if math.Abs(float64(got-want)) > float64(want)*0.05 {
		t.Errorf("sweep found %d responders, world has %d", got, want)
	}
	if res.ByRCode[dnswire.RCodeNoError] == 0 || res.ByRCode[dnswire.RCodeRefused] == 0 {
		t.Errorf("rcode histogram incomplete: %v", res.ByRCode)
	}
	if res.ByRCode[dnswire.RCodeNoError] <= res.ByRCode[dnswire.RCodeRefused] {
		t.Error("NOERROR not the dominant class")
	}
}

func TestSweepRecoveryExact(t *testing.T) {
	// With zero loss the sweep must find exactly the resolving set.
	cfg := wildnet.DefaultConfig(16)
	cfg.Loss = 0
	w, err := wildnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer tr.Close()
	s := New(tr, Options{Workers: 4, SettleDelay: time.Millisecond})
	res, err := s.SweepContext(context.Background(), 16, 7, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32]bool{}
	for u := uint32(1); u < 1<<16; u++ {
		if w.ResolverAt(u, wildnet.At(0)) && w.VisibleFrom(u, wildnet.VantagePrimary, wildnet.At(0)) {
			want[u] = true
		}
	}
	if res.Total() != len(want) {
		t.Errorf("sweep found %d, want exactly %d", res.Total(), len(want))
	}
	for _, r := range res.Responders {
		if !want[r.Addr] {
			t.Errorf("phantom responder %d", r.Addr)
		}
	}
}

func TestSweepRespectsBlacklist(t *testing.T) {
	_, tr := testWorld(t, 16)
	defer tr.Close()
	bl := lfsr.NewBlacklist()
	if err := bl.AddCIDR("0.0.128.0/17"); err != nil { // upper half of the space
		t.Fatal(err)
	}
	s := testScanner(tr)
	res, err := s.SweepContext(context.Background(), 16, 5, bl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probed >= 1<<15 {
		t.Errorf("probed %d targets despite blacklist", res.Probed)
	}
	for _, r := range res.Responders {
		if r.Addr >= 1<<15 {
			t.Errorf("responder %d inside blacklisted range", r.Addr)
		}
	}
}

func TestSweepDetectsMisSourced(t *testing.T) {
	w, tr := testWorld(t, 18)
	defer tr.Close()
	s := testScanner(tr)
	res, err := s.SweepContext(context.Background(), 18, 5, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.MisSourcedCount()) / float64(res.Total())
	if frac < 0.01 || frac > 0.06 {
		t.Errorf("mis-sourced share = %.3f, want ≈ 0.027 (§2.2)", frac)
	}
}

func TestDomainScanRoundTrip(t *testing.T) {
	w, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	sweep, err := s.SweepContext(context.Background(), 16, 9, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	if len(resolvers) < 100 {
		t.Fatalf("only %d NOERROR resolvers", len(resolvers))
	}
	names := []string{domains.GroundTruth, "chase.com", "ghoogle.com"}
	res, err := s.ScanDomainsContext(context.Background(), resolvers, names)
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	gtCorrect := 0
	want, _ := w.LegitAddrs(domains.GroundTruth, "DE")
	for ri := range resolvers {
		a := res.Answers[0][ri]
		if !a.Answered() {
			continue
		}
		answered++
		for _, addr := range a.Addrs {
			if addr == want[0] {
				gtCorrect++
				break
			}
		}
	}
	if answered < len(resolvers)*9/10 {
		t.Errorf("only %d/%d resolvers answered the GT probe", answered, len(resolvers))
	}
	if gtCorrect < answered*8/10 {
		t.Errorf("only %d/%d GT answers correct", gtCorrect, answered)
	}
}

func TestDomainScanAttributionViaPortScramble(t *testing.T) {
	// Across a large population some resolvers rewrite response ports;
	// attribution must still succeed via the 0x20 bits.
	w, tr := testWorld(t, 18)
	defer tr.Close()
	s := testScanner(tr)
	sweep, err := s.SweepContext(context.Background(), 18, 3, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	res, err := s.ScanDomainsContext(context.Background(), resolvers, []string{"thepiratebay.se"})
	if err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for ri := range resolvers {
		if res.Answers[0][ri].PortRewritten {
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Error("no port-rewritten responses recovered via 0x20 (expected ≈1%)")
	}
}

func TestDomainScanDetectsDoubleResponses(t *testing.T) {
	w, tr := testWorld(t, 20)
	defer tr.Close()
	s := testScanner(tr)
	sweep, err := s.SweepContext(context.Background(), 20, 3, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	res, err := s.ScanDomainsContext(context.Background(), resolvers, []string{"facebook.com"})
	if err != nil {
		t.Fatal(err)
	}
	doubles := 0
	for ri := range resolvers {
		if res.Answers[0][ri].Responses > 1 {
			doubles++
		}
	}
	if doubles == 0 {
		t.Error("no double responses observed for a GFW domain")
	}
}

func TestChaosScan(t *testing.T) {
	w, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	sweep, err := s.SweepContext(context.Background(), 16, 9, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	res, err := s.ScanChaosContext(context.Background(), resolvers)
	if err != nil {
		t.Fatal(err)
	}
	if res.Responded() < len(resolvers)*9/10 {
		t.Errorf("only %d/%d CHAOS responses", res.Responded(), len(resolvers))
	}
	versions, errors := 0, 0
	for i := range res.Answers {
		a := &res.Answers[i]
		if a.BindRCode == dnswire.RCodeRefused || a.BindRCode == dnswire.RCodeServFail {
			errors++
		}
		if a.BindText != "" {
			versions++
		}
	}
	if versions == 0 || errors == 0 {
		t.Errorf("CHAOS classes missing: %d versions, %d errors", versions, errors)
	}
}

func TestScanDomainsRejectsOversizedPopulation(t *testing.T) {
	_, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	big := make([]uint32, dnswire.MaxProbeID+2)
	if _, err := s.ScanDomainsContext(context.Background(), big, []string{"x.example"}); err == nil {
		t.Error("oversized resolver list accepted")
	}
}

func TestProbeReturnsResponses(t *testing.T) {
	w, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	// Find an honest resolver.
	var target uint32
	for u := uint32(0); u < 1<<16; u++ {
		if w.ResolverAt(u, wildnet.At(0)) {
			target = u
			break
		}
	}
	msgs, err := s.ProbeContext(context.Background(), target, domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN)
	if err != nil || len(msgs) == 0 {
		t.Error("probe got no response (loss retry not expected here)")
	}
}
