package wildnet

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/prand"
)

// findResolver locates an address with the wanted property.
func findResolver(t *testing.T, w *World, tt Time, want func(Profile) bool) (uint32, Profile) {
	t.Helper()
	for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
		p, ok := w.ProfileAt(u, tt)
		if ok && want(p) {
			return u, p
		}
	}
	t.Fatal("no resolver with wanted profile found")
	return 0, Profile{}
}

func query(name string, typ dnswire.Type, class dnswire.Class) *dnswire.Message {
	return dnswire.NewQuery(4242, name, typ, class)
}

// decodedResponse is a response the world emitted with its Message
// tree, the form the handler tests read answers in.
type decodedResponse struct {
	queryResponse
	Msg *dnswire.Message
}

// handle sends q from vantage v and srcPort to dst the way both
// transports do: packed, answered by handleDNS on the wire with no fault
// context, each response decoded into its Msg. A query that does not
// pack draws nothing, and a response that does not decode is dropped.
func handle(w *World, v Vantage, srcPort uint16, dst uint32, q *dnswire.Message, t Time) []decodedResponse {
	payload, err := q.PackBytes()
	if err != nil {
		return nil
	}
	x := exchangePool.Get().(*exchange)
	defer exchangePool.Put(x)
	var out []decodedResponse
	for _, r := range w.handleDNS(x, v, srcPort, dst, payload, t, faultCtx{}) {
		if m, err := dnswire.Unpack(x.wire(r)); err == nil {
			out = append(out, decodedResponse{r, m})
		}
	}
	return out
}

// ptrName builds the in-addr.arpa name for an address.
func ptrName(u uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa", u&0xFF, u>>8&0xFF, u>>16&0xFF, u>>24)
}

func TestHonestResolverAnswersGT(t *testing.T) {
	w := testWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest && !p.MisSourced
	})
	resps := handle(w, VantagePrimary, 4000, u, query(domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN), At(0))
	if len(resps) != 1 {
		t.Fatalf("got %d responses, want 1", len(resps))
	}
	m := resps[0].Msg
	if m.Header.RCode != dnswire.RCodeNoError || len(m.Answers) == 0 {
		t.Fatalf("GT answer = %v", m)
	}
	want, _ := w.LegitAddrs(domains.GroundTruth, vantageCountry)
	got := lfsr.AddrToU32(m.Answers[0].Data.(dnswire.A).Addr)
	if got != want[0] {
		t.Errorf("GT A = %d, want %d", got, want[0])
	}
}

func TestRefusedAndServfailClasses(t *testing.T) {
	w := testWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool { return p.RCode == RCRefused })
	resps := handle(w, VantagePrimary, 4000, u, query("example.com", dnswire.TypeA, dnswire.ClassIN), At(0))
	if len(resps) != 1 || resps[0].Msg.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("refused resolver answered %v", resps)
	}
	u2, _ := findResolver(t, w, At(0), func(p Profile) bool { return p.RCode == RCServFail })
	resps = handle(w, VantagePrimary, 4000, u2, query("example.com", dnswire.TypeA, dnswire.ClassIN), At(0))
	if len(resps) != 1 || resps[0].Msg.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("servfail resolver answered %v", resps)
	}
}

func TestChaosVersionResponses(t *testing.T) {
	w := testWorld(t, 16)
	u, p := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Chaos == ChaosVersioned
	})
	resps := handle(w, VantagePrimary, 4000, u, query("version.bind", dnswire.TypeTXT, dnswire.ClassCH), At(0))
	if len(resps) != 1 {
		t.Fatalf("got %d responses", len(resps))
	}
	txt, ok := resps[0].Msg.Answers[0].Data.(dnswire.TXT)
	if !ok || strings.Join(txt.Strings, "") == "" {
		t.Fatalf("CHAOS answer = %v", resps[0].Msg)
	}
	_ = p
	// Hidden-string class must not leak a real version.
	u2, p2 := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Chaos == ChaosHidden
	})
	resps = handle(w, VantagePrimary, 4000, u2, query("version.bind", dnswire.TypeTXT, dnswire.ClassCH), At(0))
	txt = resps[0].Msg.Answers[0].Data.(dnswire.TXT)
	if strings.Join(txt.Strings, "") == "" {
		t.Error("hidden class returned empty string")
	}
	_ = p2
	// Error class returns REFUSED or SERVFAIL.
	u3, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Chaos == ChaosError
	})
	resps = handle(w, VantagePrimary, 4000, u3, query("version.bind", dnswire.TypeTXT, dnswire.ClassCH), At(0))
	rc := resps[0].Msg.Header.RCode
	if rc != dnswire.RCodeRefused && rc != dnswire.RCodeServFail {
		t.Errorf("CHAOS error class returned %v", rc)
	}
}

func TestStaticIPResolverConsistent(t *testing.T) {
	w := testWorld(t, 19)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipStaticIP
	})
	var first netip.Addr
	for i, name := range []string{"google.com", "paypal.com", domains.GroundTruth} {
		resps := handle(w, VantagePrimary, 4000, u, query(name, dnswire.TypeA, dnswire.ClassIN), At(0))
		if len(resps) != 1 || len(resps[0].Msg.Answers) != 1 {
			t.Fatalf("static resolver gave %v", resps)
		}
		a := resps[0].Msg.Answers[0].Data.(dnswire.A).Addr
		if i == 0 {
			first = a
		} else if a != first {
			t.Errorf("static resolver returned %v then %v", first, a)
		}
	}
}

func TestSelfIPResolver(t *testing.T) {
	w := testWorld(t, 19)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipSelfIP
	})
	resps := handle(w, VantagePrimary, 4000, u, query("chase.com", dnswire.TypeA, dnswire.ClassIN), At(0))
	got := lfsr.AddrToU32(resps[0].Msg.Answers[0].Data.(dnswire.A).Addr)
	if got != u {
		t.Errorf("self-IP resolver returned %d, want %d", got, u)
	}
}

func TestNXMonetizerRedirectsOnlyNX(t *testing.T) {
	w := testWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipNXMonetize && p.Country == "US"
	})
	// NX domain: must return an address instead of NXDOMAIN.
	resps := handle(w, VantagePrimary, 4000, u, query("ghoogle.com", dnswire.TypeA, dnswire.ClassIN), At(0))
	if resps[0].Msg.Header.RCode != dnswire.RCodeNoError || len(resps[0].Msg.Answers) == 0 {
		t.Errorf("monetizer did not monetize NX: %v", resps[0].Msg)
	}
	// Existing non-malware domain: honest answer.
	resps = handle(w, VantagePrimary, 4000, u, query("chase.com", dnswire.TypeA, dnswire.ClassIN), At(0))
	want, _ := w.LegitAddrs("chase.com", "US")
	got := lfsr.AddrToU32(resps[0].Msg.Answers[0].Data.(dnswire.A).Addr)
	found := false
	for _, a := range want {
		if a == got {
			found = true
		}
	}
	if !found {
		t.Errorf("monetizer mangled existing domain: got %d, want one of %v", got, want)
	}
}

func TestHonestNXDomainIsNXOrEmpty(t *testing.T) {
	w := testWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest && p.Country == "US"
	})
	resps := handle(w, VantagePrimary, 4000, u, query("amason.com", dnswire.TypeA, dnswire.ClassIN), At(0))
	m := resps[0].Msg
	if m.Header.RCode == dnswire.RCodeNXDomain {
		return
	}
	if m.Header.RCode == dnswire.RCodeNoError && len(m.Answers) == 0 {
		return
	}
	t.Errorf("honest resolver returned %v for NX domain", m)
}

func TestChineseGFWInjection(t *testing.T) {
	w := testWorld(t, 18)
	u, p := findResolver(t, w, At(50), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest && p.Country == "CN" && !p.GFWDouble
	})
	resps := handle(w, VantagePrimary, 4000, u, query("facebook.com", dnswire.TypeA, dnswire.ClassIN), At(50))
	if len(resps) != 1 {
		t.Fatalf("CN resolver sent %d responses, want 1 (poisoned)", len(resps))
	}
	poisoned := lfsr.AddrToU32(resps[0].Msg.Answers[0].Data.(dnswire.A).Addr)
	legit, _ := w.LegitAddrs("facebook.com", "CN")
	for _, a := range legit {
		if a == poisoned {
			t.Error("GFW answer matches legitimate address")
		}
	}
	_ = p
	// Double-response resolvers race the legitimate answer.
	u2, _ := findResolver(t, w, At(50), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest && p.Country == "CN" && p.GFWDouble
	})
	resps = handle(w, VantagePrimary, 4000, u2, query("twitter.com", dnswire.TypeA, dnswire.ClassIN), At(50))
	if len(resps) != 2 {
		t.Fatalf("double-response resolver sent %d responses", len(resps))
	}
	if resps[0].DelayMS >= resps[1].DelayMS {
		t.Error("injected response does not arrive first")
	}
	// Non-GFW domains resolve normally from CN.
	resps = handle(w, VantagePrimary, 4000, u, query("chase.com", dnswire.TypeA, dnswire.ClassIN), At(50))
	if len(resps) != 1 || len(resps[0].Msg.Answers) == 0 {
		t.Errorf("CN resolver broke non-censored domain: %v", resps)
	}
}

func TestGFWInjectionWithoutResolver(t *testing.T) {
	w := testWorld(t, 18)
	// Find a Chinese address hosting no resolver.
	var u uint32
	found := false
	for v := uint32(0); v < 1<<18; v++ {
		if w.geo.LookupU32(v).Country == "CN" && !w.ResolverAt(v, At(50)) && w.infra.roleOf(v) == RoleNone {
			u, found = v, true
			break
		}
	}
	if !found {
		t.Skip("no empty Chinese address at this order")
	}
	resps := handle(w, VantagePrimary, 4000, u, query("youtube.com", dnswire.TypeA, dnswire.ClassIN), At(50))
	if len(resps) != 1 || len(resps[0].Msg.Answers) == 0 {
		t.Errorf("injector silent for non-resolver Chinese address: %v", resps)
	}
	resps = handle(w, VantagePrimary, 4000, u, query("chase.com", dnswire.TypeA, dnswire.ClassIN), At(50))
	if len(resps) != 0 {
		t.Errorf("non-GFW domain triggered response from empty address: %v", resps)
	}
}

func TestCensorshipLandingPages(t *testing.T) {
	w := testWorld(t, 18)
	u, _ := findResolver(t, w, At(50), func(p Profile) bool {
		if p.RCode != RCNoError || p.Manip != ManipHonest || p.Country != "ID" {
			return false
		}
		mode, _ := w.CensorDecision(&p, "adultfinder.com")
		return mode == CensorLanding
	})
	resps := handle(w, VantagePrimary, 4000, u, query("adultfinder.com", dnswire.TypeA, dnswire.ClassIN), At(50))
	got := lfsr.AddrToU32(resps[0].Msg.Answers[0].Data.(dnswire.A).Addr)
	role, slot := w.RoleOf(got)
	if role != RoleCensorPage {
		t.Fatalf("censored answer role = %v", role)
	}
	if CensorPageCountry(slot) != "ID" {
		t.Errorf("landing page country = %s, want ID", CensorPageCountry(slot))
	}
}

// TestCensorIndexMatchesFullWalk: the by-country rule index must decide
// exactly as a walk over the whole table does — same first match, same
// table index in the compliance draw — for every country with rules, a
// country with none, every scan-list name and an unlisted one.
func TestCensorIndexMatchesFullWalk(t *testing.T) {
	w := testWorld(t, 16)
	fullWalk := func(p *Profile, cn string, cat domains.Category) (CensorMode, uint32) {
		for ri := range censorRules {
			r := &censorRules[ri]
			if r.country != p.Country || !r.matches(cn, cat) {
				continue
			}
			if prand.UnitOf(p.Identity, facetCensor, uint64(ri)) >= r.coverage {
				continue
			}
			if r.gfw {
				return CensorGFW, w.gfwRandomAddr(p.Identity, cn)
			}
			landing := r.country
			if r.landing != "" {
				landing = r.landing
			}
			return CensorLanding, w.CensorPageAddr(landing, int(prand.Hash(p.Identity, facetCensor, 0xBEEF)%64))
		}
		return CensorNone, 0
	}
	countries := append([]string{"US", ""}, CensorCountries...)
	names := append(domains.Names(), "unlisted.example")
	censored := 0
	for _, cc := range countries {
		for id := uint64(1); id <= 12; id++ {
			p := Profile{Identity: id * 0x9E3779B97F4A7C15, Country: cc}
			for _, name := range names {
				d, _ := domains.ByName(name)
				wantMode, wantAddr := fullWalk(&p, name, d.Category)
				if mode, addr := w.censorDecision(&p, name, d.Category); mode != wantMode || addr != wantAddr {
					t.Fatalf("%s id %#x %s: index decided (%v, %#x), full walk (%v, %#x)", cc, p.Identity, name, mode, addr, wantMode, wantAddr)
				}
				if mode, addr := w.CensorDecision(&p, strings.ToUpper(name)+"."); mode != wantMode || addr != wantAddr {
					t.Fatalf("%s id %#x %s: CensorDecision disagrees with censorDecision", cc, p.Identity, name)
				}
				if wantMode != CensorNone {
					censored++
				}
			}
		}
	}
	if censored == 0 {
		t.Fatal("no profile censored anything; the comparison is vacuous")
	}
}

func TestEstonianResolversUseRussianLanding(t *testing.T) {
	w := testWorld(t, 21)
	u, _ := findResolver(t, w, At(50), func(p Profile) bool {
		if p.RCode != RCNoError || p.Manip != ManipHonest || p.Country != "EE" {
			return false
		}
		mode, _ := w.CensorDecision(&p, "bet-at-home.com")
		return mode == CensorLanding
	})
	resps := handle(w, VantagePrimary, 4000, u, query("bet-at-home.com", dnswire.TypeA, dnswire.ClassIN), At(50))
	got := lfsr.AddrToU32(resps[0].Msg.Answers[0].Data.(dnswire.A).Addr)
	_, slot := w.RoleOf(got)
	if CensorPageCountry(slot) != "RU" {
		t.Errorf("Estonian landing country = %s, want RU (§6: Russian censorship)", CensorPageCountry(slot))
	}
}

func TestPTRLookups(t *testing.T) {
	w := testWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest
	})
	// Find an address with rDNS.
	var target uint32
	for v := uint32(100); v < 1<<16; v++ {
		if w.RDNS(v) != "" {
			target = v
			break
		}
	}
	resps := handle(w, VantagePrimary, 4000, u, query(ptrName(target), dnswire.TypePTR, dnswire.ClassIN), At(0))
	if len(resps) != 1 {
		t.Fatalf("PTR got %d responses", len(resps))
	}
	ptr, ok := resps[0].Msg.Answers[0].Data.(dnswire.PTR)
	if !ok || ptr.Target != w.RDNS(target) {
		t.Errorf("PTR = %v, want %q", resps[0].Msg.Answers[0].Data, w.RDNS(target))
	}
}

func TestRDNSRoundTripRule(t *testing.T) {
	w := testWorld(t, 16)
	// For any resolver-space address with rDNS, the A lookup of that
	// name must return the address (prefilter rule ii).
	n := 0
	for v := uint32(0); v < 1<<16 && n < 50; v += 13 {
		if w.infra.roleOf(v) != RoleNone {
			continue
		}
		name := w.RDNS(v)
		if name == "" {
			continue
		}
		got, ok := w.rdnsRoundTrip(name)
		if !ok || got != v {
			t.Errorf("round trip of %q = %d/%v, want %d", name, got, ok, v)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no rDNS names found")
	}
}

func TestMailRedirectOnlyMX(t *testing.T) {
	w := testWorld(t, 19)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipMailRedir
	})
	resps := handle(w, VantagePrimary, 4000, u, query("imap.gmail.com", dnswire.TypeA, dnswire.ClassIN), At(0))
	got := lfsr.AddrToU32(resps[0].Msg.Answers[0].Data.(dnswire.A).Addr)
	if role, _ := w.RoleOf(got); role != RoleMailSniff {
		t.Errorf("MX answer role = %v, want mail-sniff", role)
	}
	resps = handle(w, VantagePrimary, 4000, u, query("chase.com", dnswire.TypeA, dnswire.ClassIN), At(0))
	got = lfsr.AddrToU32(resps[0].Msg.Answers[0].Data.(dnswire.A).Addr)
	if role, _ := w.RoleOf(got); role == RoleMailSniff {
		t.Error("non-MX domain redirected to mail sniffer")
	}
}

func TestSnoopSequenceStopsSingleResponders(t *testing.T) {
	w := testWorld(t, 18)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Util == UtilSingleStop
	})
	q0 := dnswire.NewQuery(0, "com", dnswire.TypeNS, dnswire.ClassIN)
	q0.Header.RD = false
	if resps := handle(w, VantagePrimary, 4000, u, q0, At(0)); len(resps) != 1 {
		t.Fatalf("first snoop probe got %d responses", len(resps))
	}
	q1 := dnswire.NewQuery(1, "com", dnswire.TypeNS, dnswire.ClassIN)
	q1.Header.RD = false
	if resps := handle(w, VantagePrimary, 4000, u, q1, At(0)); len(resps) != 0 {
		t.Errorf("single-stop resolver answered probe #2")
	}
}

func TestScanQNameEncodingAnswered(t *testing.T) {
	w := testWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest
	})
	name := dnswire.EncodeTargetQName("p1", w.Addr(u), domains.ScanBase)
	resps := handle(w, VantagePrimary, 4000, u, query(name, dnswire.TypeA, dnswire.ClassIN), At(0))
	if len(resps) != 1 || len(resps[0].Msg.Answers) == 0 {
		t.Fatalf("scan qname unanswered: %v", resps)
	}
	got := lfsr.AddrToU32(resps[0].Msg.Answers[0].Data.(dnswire.A).Addr)
	if got != u {
		t.Errorf("scan answer = %d, want encoded target %d", got, u)
	}
}

// TestScanBaseDecodersAgree: legitAddrs reads a name under the scan base
// from the exchange's canonical name bytes (dnswire.DecodeTargetQNameU32),
// and answers every shape of name a query can carry there exactly as the
// string decoder would have it: the encoded target, or the site host a
// name without one resolves to.
func TestScanBaseDecodersAgree(t *testing.T) {
	w := testWorld(t, 16)
	const target = 0xC0A80101
	base := domains.ScanBase
	for _, c := range []struct {
		shape, name string
		decodes     bool
	}{
		{"census probe", "r1a2b.c0a80101." + base, true},
		{"mixed case", "R1A2B.C0A80101." + strings.ToUpper(base), true},
		{"extra labels", "a.b.r1.c0a80101." + base, true},
		{"no prefix label", "c0a80101." + base, false},
		{"9-character hex label", "r1.c0a801010." + base, false},
		{"7-character hex label", "r1.c0a8010." + base, false},
		{"non-hex digit", "r1.c0a8z101." + base, false},
		{"empty prefix", "xc0a80101." + base, false}, // first octet becomes '.'
		{"bare base", base, false},
	} {
		payload, err := dnswire.AppendQuery(nil, 1, true, c.name, dnswire.TypeA, dnswire.ClassIN)
		if err != nil {
			t.Fatalf("%s: %v", c.shape, err)
		}
		if c.shape == "empty prefix" {
			payload[13] = '.' // the label ".c0a80101" spells ".c0a80101.<base>"
		}
		var x exchange
		if !x.accept(payload) {
			t.Fatalf("%s: query not accepted", c.shape)
		}
		cn, d, li, _ := x.qname()
		u, ok := dnswire.DecodeTargetQNameU32(x.cn, base)
		addr, err := dnswire.DecodeTargetQName(cn, base)
		if ok != (err == nil) || ok != c.decodes || ok && (u != target || lfsr.AddrToU32(addr) != u) {
			t.Errorf("%s (%q): byte decoder %08x, %v; string decoder %v, %v; want decodes=%v", c.shape, cn, u, ok, addr, err, c.decodes)
		}
		want := w.infra.addrOf(RoleSiteHost, 1)
		if err == nil {
			want = w.Mask(lfsr.AddrToU32(addr))
		}
		got, rc := w.legitAddrs(nil, cn, x.cn, d, li >= 0, "DE")
		if rc != dnswire.RCodeNoError || len(got) != 1 || got[0] != want {
			t.Errorf("%s (%q): legitAddrs = %v, %v; want [%d]", c.shape, cn, got, rc, want)
		}
	}
}

// TestQNameNamesSnoopedTLDs: the one lookup qname makes names a snooped
// TLD by its SnoopedTLDs index, in any letter casing — no TLD is a
// scan-list name, which qname tries first — and every other name -1.
func TestQNameNamesSnoopedTLDs(t *testing.T) {
	var x exchange
	ask := func(name string) (string, int) {
		payload, err := dnswire.AppendQuery(nil, 1, false, name, dnswire.TypeNS, dnswire.ClassIN)
		if err != nil || !x.accept(payload) {
			t.Fatalf("query %q not accepted (%v)", name, err)
		}
		cn, _, _, tld := x.qname()
		return cn, tld
	}
	for i, tld := range domains.SnoopedTLDs {
		if cn, got := ask(strings.ToUpper(tld)); cn != tld || got != i {
			t.Errorf("%q: qname = %q, tld %d; want %q, %d", tld, cn, got, tld, i)
		}
	}
	for _, name := range []string{"version.bind", "chase.com", "example.org", "c0m"} {
		if _, got := ask(name); got != -1 {
			t.Errorf("%q: tld %d, want -1", name, got)
		}
	}
}
