package core

import (
	"context"
	"math"
	"testing"

	"goingwild/internal/churn"
	"goingwild/internal/classify"
	"goingwild/internal/dnssec"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

func newStudy(t testing.TB, order uint) *Study {
	t.Helper()
	s, err := NewStudy(DefaultConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// domainStudy runs steps ❶–❻ at week 50 for the given categories on a
// plan of their own.
func domainStudy(t testing.TB, s *Study, cats ...domains.Category) *DomainStudyResult {
	t.Helper()
	p := s.NewPlan()
	res := p.DomainStudy(50, cats)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return res.V
}

func TestTrustedResolveAndRDNSChannels(t *testing.T) {
	s := newStudy(t, 16)
	ctx := context.Background()
	addrs, rc := s.TrustedResolve(ctx, domains.GroundTruth)
	if rc != 0 || len(addrs) == 0 {
		t.Fatalf("trusted resolve GT: %v rc=%v", addrs, rc)
	}
	// Cache must return identical results.
	addrs2, _ := s.TrustedResolve(ctx, domains.GroundTruth)
	if addrs2[0] != addrs[0] {
		t.Error("trusted cache inconsistent")
	}
	// rDNS round trip through the measurement channel.
	found := false
	for u := uint32(50); u < 1<<16 && !found; u += 97 {
		if name, ok := s.RDNS(ctx, u); ok && name != "" {
			found = true
		}
	}
	if !found {
		t.Error("no rDNS resolvable through trusted channel")
	}
}

// TestCutShortLookupsAreNotCached: a trusted lookup under a dead context
// reads as unanswered and leaves the caches alone, so the same study
// answers it properly afterwards.
func TestCutShortLookupsAreNotCached(t *testing.T) {
	s := newStudy(t, 16)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if addrs, rc := s.TrustedResolve(dead, domains.GroundTruth); rc != dnswire.RCodeServFail || len(addrs) != 0 {
		t.Fatalf("trusted resolve under a dead context: %v rc=%v, want SERVFAIL", addrs, rc)
	}
	if _, ok := s.RDNS(dead, 50); ok {
		t.Fatal("rDNS answered under a dead context")
	}
	if len(s.trustedCache) != 0 || len(s.rdnsCache) != 0 {
		t.Fatalf("cut-short lookups were cached: %v %v", s.trustedCache, s.rdnsCache)
	}
	if addrs, rc := s.TrustedResolve(context.Background(), domains.GroundTruth); rc != 0 || len(addrs) == 0 {
		t.Fatalf("trusted resolve after the cut-short one: %v rc=%v", addrs, rc)
	}
}

func TestVerificationScanFindsBlockedNetworks(t *testing.T) {
	p := newStudy(t, 17).NewPlan()
	out := p.Verification(50)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	v := out.V
	if v.Primary == 0 || v.Secondary == 0 {
		t.Fatalf("empty scans: %+v", v)
	}
	// At week 50 the fated networks block the primary vantage, so the
	// secondary must see extra responders...
	if v.OnlySecondary == 0 {
		t.Error("verification scan found no blocked networks")
	}
	// ...but the missed NOERROR share stays small (<1% in the paper;
	// a few percent at this scale).
	if v.MissedNOERRORShare > 0.08 {
		t.Errorf("missed NOERROR share = %.3f, want small", v.MissedNOERRORShare)
	}
}

func TestDomainStudySmallCategories(t *testing.T) {
	res := domainStudy(t, newStudy(t, 17), domains.Adult, domains.Gambling, domains.NX)
	if len(res.Resolvers) < 300 {
		t.Fatalf("only %d resolvers", len(res.Resolvers))
	}

	// Prefiltering shape (§4.1): existing domains mostly legitimate;
	// NX names mostly empty; unexpected a small minority except NX.
	var nxUnexpected, adultLegit float64
	for _, ds := range res.Pre.PerDomain {
		d, ok := domains.ByName(ds.Name)
		if !ok {
			continue
		}
		switch {
		case d.Category == domains.NX && ds.Name == "ghoogle.com":
			nxUnexpected = ds.Share(prefilter.ClassUnexpected)
		case ds.Name == "adultfinder.com":
			adultLegit = ds.Share(prefilter.ClassLegit)
		}
	}
	if nxUnexpected < 0.05 || nxUnexpected > 0.30 {
		t.Errorf("NX unexpected share = %.3f, want ≈ 0.137", nxUnexpected)
	}
	// adultfinder is censored by several countries: legit share far
	// below the usual ~0.9.
	if adultLegit > 0.92 {
		t.Errorf("adultfinder legit share = %.3f — censorship invisible", adultLegit)
	}

	// Table 5 shape: Adult's unexpected responses dominated by
	// censorship; NX dominated by search/parking/error.
	adultCensor := res.Report.Table5.Share(domains.Adult, classify.LCensorship)
	if adultCensor.Avg < 0.4 {
		t.Errorf("Adult censorship avg = %.3f, want high (paper: 0.886)", adultCensor.Avg)
	}
	nxSearch := res.Report.Table5.Share(domains.NX, classify.LSearch)
	if nxSearch.Avg < 0.15 {
		t.Errorf("NX search avg = %.3f, want ≈ 0.357", nxSearch.Avg)
	}
	if res.Report.Clusters == 0 || res.Report.PairCount == 0 {
		t.Errorf("degenerate classification: %+v", res.Report)
	}
	if res.Report.FetchedShare < 0.6 {
		t.Errorf("fetched share = %.3f, want ≈ 0.889", res.Report.FetchedShare)
	}
}

func TestDomainStudyCensorshipGeography(t *testing.T) {
	s := newStudy(t, 18)
	res := domainStudy(t, s, domains.Alexa)
	fig := res.Fig4
	if fig.UnexpectedCount == 0 {
		t.Fatal("no unexpected resolvers for the censored trio")
	}
	// China must dominate the unexpected distribution (83.6% in the
	// paper), far above its share among all resolvers (≈13%).
	cnAll := fig.All["CN"]
	cnUnexpected := fig.Unexpected["CN"]
	if cnUnexpected < 0.5 {
		t.Errorf("CN unexpected share = %.3f, want ≈ 0.836", cnUnexpected)
	}
	if cnUnexpected < cnAll*3 {
		t.Errorf("CN not overrepresented: all=%.3f unexpected=%.3f", cnAll, cnUnexpected)
	}
	// Iran second (12.9% in the paper).
	top := classify.TopCountries(fig.Unexpected, 2)
	if len(top) < 2 || top[0].Country != "CN" {
		t.Errorf("top censoring country = %+v, want CN first", top)
	}

	// Per-country compliance: ≈99.7% of Chinese resolvers censor
	// facebook.com.
	cov := classify.CensorCoverage(res.Scan, res.Pre, func(ri int) string {
		return s.World.Geo().LookupU32(res.Resolvers[ri]).Country
	}, "facebook.com")
	if cov["CN"] < 0.95 {
		t.Errorf("Chinese compliance = %.3f, want ≈ 0.997", cov["CN"])
	}
	if cov["US"] > 0.2 {
		t.Errorf("US compliance = %.3f, want ≈ 0", cov["US"])
	}
	// GFW double responses observed.
	if res.Report.Cases.DoubleResponseResolvers == 0 {
		t.Error("no double-response resolvers detected")
	}
}

func TestDomainStudyCaseStudies(t *testing.T) {
	res := domainStudy(t, newStudy(t, 17), domains.Ads, domains.Banking, domains.MX, domains.Misc)
	cs := res.Report.Cases
	if cs.ProxyPlainIPs == 0 {
		t.Error("no HTTP-only proxies detected")
	}
	if cs.ProxyPlainResolvers <= cs.ProxyTLSResolvers {
		t.Errorf("proxy resolver ordering wrong: plain=%d tls=%d (paper: 10,179 vs 99)",
			cs.ProxyPlainResolvers, cs.ProxyTLSResolvers)
	}
	if cs.PhishPayPalIPs == 0 || cs.PhishPayPalResolvers == 0 {
		t.Error("PayPal phishing not detected")
	}
	if cs.PhishBankIPs == 0 {
		t.Error("bank phishing hosts not detected")
	}
	if cs.MailListenerIPs == 0 || cs.MailRedirResolvers == 0 {
		t.Error("mail interception not detected")
	}
	if cs.MalwareIPs == 0 || cs.MalwareResolvers == 0 {
		t.Error("malware delivery not detected")
	}
	if cs.AdInjectIPs == 0 {
		t.Error("ad injection not detected")
	}
	if cs.SameSetResolvers == 0 {
		t.Error("no same-answer-set resolvers found (paper: 50.4% of suspicious)")
	}
}

func TestChaosAndDeviceSurveysEndToEnd(t *testing.T) {
	p := newStudy(t, 16).NewPlan()
	chaos, dev := p.Chaos(46), p.Devices(46)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(p.Census(46).Resolvers); n == 0 || chaos.V.Responded == 0 {
		t.Fatalf("chaos survey empty: n=%d", n)
	}
	if v := chaos.V.VersionedShare(); math.Abs(v-0.339) > 0.08 {
		t.Errorf("versioned share = %.3f", v)
	}
	if dev.V.Responsive == 0 {
		t.Fatal("device survey empty")
	}
}

func TestStageTraceComplete(t *testing.T) {
	res := domainStudy(t, newStudy(t, 16), domains.Dating)
	if len(res.StageTrace) != 7 {
		t.Fatalf("stage trace = %+v", res.StageTrace)
	}
	for _, st := range res.StageTrace {
		if st.Count < 0 {
			t.Errorf("stage %s count %d", st.Stage, st.Count)
		}
	}
}

func TestDNSSECRaceExperiment(t *testing.T) {
	p := newStudy(t, 18).NewPlan()
	// wikileaks.org is signed AND injected by the Chinese firewall:
	// the exact §5 scenario; facebook.com is injected but unsigned.
	signed, unsigned := p.DNSSECRace(50, "CN", "wikileaks.org"), p.DNSSECRace(50, "CN", "facebook.com")
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := signed.V
	if !res.Signed {
		t.Fatal("wikileaks.org not DNSSEC-signed in this world")
	}
	if res.Resolvers < 20 {
		t.Skipf("only %d Chinese resolvers at this order", res.Resolvers)
	}
	// First-response strategy: overwhelmingly poisoned (99.7% of CN
	// resolvers return the injected answer first).
	if res.FirstPoisoned <= res.FirstCorrect*10 {
		t.Errorf("first-response poisoning too low: %d poisoned vs %d correct",
			res.FirstPoisoned, res.FirstCorrect)
	}
	// Validate-and-wait: never accepts a poisoned answer; the correct
	// signed response only arrives from double-response resolvers, so
	// most lookups fail instead (§5: DNSSEC protects integrity but
	// cannot force availability against an injector).
	if res.ValidatedCorrect+res.ValidatedUnavail != res.Resolvers {
		t.Errorf("validated outcomes %d+%d != %d resolvers",
			res.ValidatedCorrect, res.ValidatedUnavail, res.Resolvers)
	}
	if res.ValidatedUnavail == 0 {
		t.Error("validation never failed — injector race not modeled")
	}
	// The GFWDouble minority delivers a late signed answer that the
	// validating client accepts.
	if res.ValidatedCorrect == 0 {
		t.Error("no validated lookup succeeded — double responses unsigned?")
	}
	if res.ValidatedUnavail < res.ValidatedCorrect {
		t.Error("validated success should be the exception, not the rule")
	}
	// An unsigned injected domain cannot be protected at all.
	un := unsigned.V
	if un.Signed {
		t.Fatal("facebook.com unexpectedly signed")
	}
	if un.ValidatedFallback == 0 {
		t.Error("unsigned domain did not fall back")
	}
}

func TestDNSSECSignedAnswerValidatesEndToEnd(t *testing.T) {
	s := newStudy(t, 16)
	pub, ok := s.World.ZonePublicKey(domains.GroundTruth)
	if !ok {
		t.Fatal("GT zone unsigned")
	}
	msgs, err := s.Scanner.ProbeContext(context.Background(), s.World.RoleAddr(wildnet.RoleTrustedDNS, 0),
		domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN)
	if err != nil || len(msgs) == 0 {
		t.Fatal("no trusted response")
	}
	if !dnssec.ValidateResponse(pub, msgs[0]) {
		t.Error("trusted signed answer failed validation")
	}
}

func TestFineGrainedModificationClustering(t *testing.T) {
	res := domainStudy(t, newStudy(t, 17), domains.Banking)
	rep := res.Report
	if rep.ModClusters == 0 {
		t.Fatal("fine-grained stage produced no modification clusters")
	}
	// The phishing stations inject a single script or swap a form
	// action: small modifications must be present.
	if rep.SmallModifications == 0 {
		t.Error("no small modifications found (injected-tag phish pages expected)")
	}
	if len(rep.ModClusterSizes) != rep.ModClusters {
		t.Errorf("cluster size list inconsistent: %d vs %d", len(rep.ModClusterSizes), rep.ModClusters)
	}
	total := 0
	for i, n := range rep.ModClusterSizes {
		total += n
		if i > 0 && n > rep.ModClusterSizes[i-1] {
			t.Error("cluster sizes not sorted descending")
		}
	}
	if total == 0 {
		t.Error("empty modification clusters")
	}
}

func TestOpenResolverProjectCrossCheck(t *testing.T) {
	// §2.2: the weekly counts match the Open Resolver Project's
	// independent scans within a 2% error margin. Model: a second,
	// independently seeded scan of the same week must agree.
	s := newStudy(t, 17)
	ours, err := s.SweepAtContext(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	orp := scanner.New(s.Transport, scanner.Options{Workers: 4, SettleDelay: scanner.NoSettle})
	theirs, err := orp.SweepContext(context.Background(), s.Cfg.Order, 0x0127734C7, s.World.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	a := float64(ours.ByRCode[dnswire.RCodeNoError])
	b := float64(theirs.ByRCode[dnswire.RCodeNoError])
	diff := math.Abs(a-b) / a
	if diff > 0.02 {
		t.Errorf("independent scans disagree by %.2f%% (paper: ≤2%%)", 100*diff)
	}
}

func TestVanishedNetworkForensicsEndToEnd(t *testing.T) {
	// §2.3: 28 networks with substantial resolver populations in the
	// first scan show none at the end; the verification vantage
	// separates scanner-blocking from real filtering/shutdown.
	s := newStudy(t, 20)
	first, err := s.SweepAtContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	last, err := s.SweepAtContext(context.Background(), 55)
	if err != nil {
		t.Fatal(err)
	}
	secondary, err := s.SecondaryAliveSetContext(context.Background(), 55)
	if err != nil {
		t.Fatal(err)
	}
	asOf := func(u uint32) (uint32, string) {
		as := s.World.Geo().LookupU32(u).AS
		return as.ASN, as.Name
	}
	vanished := churn.ClassifyVanished(first.Responders, last.Responders, secondary, asOf, 3, 6)
	if len(vanished) == 0 {
		t.Fatal("no vanished networks found")
	}
	// Every fated AS (ASN 9000–9027) that was populous enough must be
	// flagged, and the blocks-scanner reason must dominate (21 of 28).
	reasons := map[string]int{}
	fated := 0
	for _, v := range vanished {
		reasons[v.Reason]++
		if v.ASN >= 9000 && v.ASN < 9028 {
			fated++
		}
	}
	if fated < len(vanished)*2/3 {
		t.Errorf("only %d/%d vanished networks are planted fates", fated, len(vanished))
	}
	if reasons["blocks-scanner"] == 0 {
		t.Error("no scanner-blocking networks identified via the secondary vantage")
	}
	t.Logf("vanished: %d networks, reasons: %v", len(vanished), reasons)
}
