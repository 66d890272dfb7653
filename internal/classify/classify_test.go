package classify

import (
	"math"
	"strings"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/fetch"
	"goingwild/internal/htmlx"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
	"goingwild/internal/websim"
	"goingwild/internal/wildnet"
)

func testRig(t *testing.T, order uint) (*wildnet.World, *websim.Server, *fetch.Client) {
	t.Helper()
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	web := websim.New(w, wildnet.At(50))
	client := fetch.NewClient(web, nil)
	return w, web, client
}

func labelOf(t *testing.T, web *websim.Server, ip uint32, host string) Label {
	t.Helper()
	resp, ok := web.HTTP(ip, host, false)
	if !ok {
		return LNoPayload
	}
	return LabelPage(resp.Status, resp.Body, htmlx.Extract(resp.Body))
}

func TestLabelPageAgainstPlantedRoles(t *testing.T) {
	w, web, _ := testRig(t, 16)
	cases := []struct {
		role wildnet.Role
		slot int
		host string
		want Label
	}{
		{wildnet.RoleCensorPage, 3, "youporn.com", LCensorship},
		{wildnet.RoleBlockPage, 2, "irc.zief.pl", LBlocking},
		{wildnet.RoleErrorPage, 0, "chase.com", LHTTPError},
		{wildnet.RoleErrorPage, 5, "chase.com", LHTTPError}, // "It works!"
		{wildnet.RoleParking, 1, "ghoogle.com", LParking},
		{wildnet.RoleSearchPage, 2, "amason.com", LSearch},
		{wildnet.RoleLoginPortal, 0, "facebook.com", LLogin},
	}
	for _, c := range cases {
		ip := w.RoleAddr(c.role, c.slot)
		if got := labelOf(t, web, ip, c.host); got != c.want {
			t.Errorf("role %v slot %d: label %v, want %v", c.role, c.slot, got, c.want)
		}
	}
}

func TestRouterLoginLabeled(t *testing.T) {
	w, web, _ := testRig(t, 16)
	// A resolver with an HTTP-serving device must label as Login.
	for u := uint32(0); u < 1<<16; u++ {
		resp, ok := web.HTTP(u, "chase.com", false)
		if !ok {
			continue
		}
		if role, _ := w.RoleOf(u); role != wildnet.RoleNone {
			continue
		}
		got := LabelPage(resp.Status, resp.Body, htmlx.Extract(resp.Body))
		if got != LLogin {
			t.Errorf("device page labeled %v, want Login", got)
		}
		return
	}
	t.Skip("no HTTP-serving resolver at this order")
}

func TestLabelPriorityCensorshipOverBlocking(t *testing.T) {
	body := `<html><title>x</title><p>Access to this website has been blocked by the order of the Turkish court.</p></html>`
	if got := LabelPage(200, body, htmlx.Extract(body)); got != LCensorship {
		t.Errorf("label = %v, want censorship", got)
	}
}

func TestTable5Accumulator(t *testing.T) {
	tb := NewTable5()
	tb.AddDomain(domains.Adult, "a.com", map[Label]int{LCensorship: 8, LHTTPError: 2}, 10)
	tb.AddDomain(domains.Adult, "b.com", map[Label]int{LCensorship: 4, LParking: 6}, 10)
	tb.Finalize()
	c := tb.Share(domains.Adult, LCensorship)
	if math.Abs(c.Avg-0.6) > 1e-9 {
		t.Errorf("censorship avg = %f, want 0.6", c.Avg)
	}
	if c.Max != 0.8 || c.MaxDomain != "a.com" {
		t.Errorf("censorship max = %f@%s", c.Max, c.MaxDomain)
	}
	if n := len(tb.perDomain[domains.Adult]); n != 2 {
		t.Errorf("domains = %d", n)
	}
	// Zero-denominator domains are ignored.
	tb2 := NewTable5()
	tb2.AddDomain(domains.Adult, "c.com", nil, 0)
	tb2.Finalize()
	if len(tb2.perDomain[domains.Adult]) != 0 {
		t.Error("empty domain counted")
	}
}

func TestBuildGroundTruth(t *testing.T) {
	w, _, client := testRig(t, 16)
	trusted := func(name string) ([]uint32, dnswire.RCode) {
		return w.LegitAddrs(name, "DE")
	}
	gt := BuildGroundTruth(client, trusted, []string{"chase.com", "imap.gmail.com", "ghoogle.com"})
	if gt.Bodies["chase.com"] == "" {
		t.Error("no GT body for chase.com")
	}
	if !strings.Contains(gt.Bodies["chase.com"], "password") {
		t.Error("GT banking page lacks login form")
	}
	if gt.MailBanners["imap.gmail.com"] == "" {
		t.Error("no GT mail banner")
	}
	if gt.Bodies["ghoogle.com"] != "" {
		t.Error("NX domain produced a GT body")
	}
}

func TestLooksLikePhish(t *testing.T) {
	gt := "<html><title>Bank</title><form action=\"https://bank/auth\" method=\"POST\"><input type=\"password\"></form></html>"
	phish := strings.Repeat("<img src=\"s.jpg\">", 46) + "<form action=\"gate.php\" method=\"POST\"></form>"
	if !looksLikePhish(phish, gt) {
		t.Error("image-reconstruction phish not flagged")
	}
	if looksLikePhish(gt, gt) {
		t.Error("GT flagged as phish")
	}
	collector := strings.Replace(gt, "https://bank/auth", "collect.php", 1)
	if !looksLikePhish(collector, gt) {
		t.Error("collector form not flagged")
	}
}

func TestFigure4Distributions(t *testing.T) {
	// Two resolvers in CN (one censoring), one in US.
	scan := &scanner.DomainScanResult{
		Resolvers: []uint32{1, 2, 3},
		Names:     []string{"facebook.com"},
		Answers: [][]scanner.TupleAnswer{{
			{RCode: dnswire.RCodeNoError, Addrs: []uint32{50}, Responses: 1},
			{RCode: dnswire.RCodeNoError, Addrs: []uint32{60}, Responses: 1},
			{RCode: dnswire.RCodeNoError, Addrs: []uint32{70}, Responses: 1},
		}},
	}
	pre := &prefilter.Result{
		Verdicts: [][]prefilter.Class{{prefilter.ClassUnexpected, prefilter.ClassLegit, prefilter.ClassLegit}},
	}
	country := func(ri int) string {
		if ri == 2 {
			return "US"
		}
		return "CN"
	}
	f := BuildFigure4(scan, pre, country, []string{"facebook.com"})
	if f.All["CN"] < 0.6 || f.All["US"] < 0.3 {
		t.Errorf("all distribution = %v", f.All)
	}
	if f.Unexpected["CN"] != 1.0 {
		t.Errorf("unexpected distribution = %v", f.Unexpected)
	}
	if f.UnexpectedCount != 1 {
		t.Errorf("unexpected count = %d", f.UnexpectedCount)
	}
}

func TestCensorCoverageThreshold(t *testing.T) {
	// Countries with fewer than 5 answering resolvers are dropped.
	n := 12
	answers := make([]scanner.TupleAnswer, n)
	verdicts := make([]prefilter.Class, n)
	resolvers := make([]uint32, n)
	for i := 0; i < n; i++ {
		resolvers[i] = uint32(i)
		answers[i] = scanner.TupleAnswer{RCode: dnswire.RCodeNoError, Addrs: []uint32{9}, Responses: 1}
		if i < 9 {
			verdicts[i] = prefilter.ClassUnexpected
		} else {
			verdicts[i] = prefilter.ClassLegit
		}
	}
	scan := &scanner.DomainScanResult{Resolvers: resolvers, Names: []string{"x.com"}, Answers: [][]scanner.TupleAnswer{answers}}
	pre := &prefilter.Result{Verdicts: [][]prefilter.Class{verdicts}}
	country := func(ri int) string {
		if ri < 10 {
			return "MN"
		}
		return "VA" // only 2 resolvers: below threshold
	}
	cov := CensorCoverage(scan, pre, country, "x.com")
	if cov["MN"] != 0.9 {
		t.Errorf("MN coverage = %f, want 0.9", cov["MN"])
	}
	if _, ok := cov["VA"]; ok {
		t.Error("tiny country not dropped")
	}
}
