package wildnet

import (
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/geodb"
	"goingwild/internal/prand"
)

// CensorMode describes how a censoring answer is delivered.
type CensorMode uint8

// Censorship delivery modes.
const (
	CensorNone CensorMode = iota
	// CensorLanding redirects to one of the country's landing pages
	// (the HTML carries "blocked by order of ..." markers, §4.2).
	CensorLanding
	// CensorGFW is the Great-Firewall style: an injected response with
	// a randomly chosen IP address arrives first; for a small share of
	// resolvers the legitimate answer follows milliseconds later.
	CensorGFW
)

// censorRule binds a country to the domains it censors. A rule matches by
// explicit names, by category, or both. Coverage is the fraction of the
// country's resolvers complying with this rule (§4.2 finds coverage far
// below 100% everywhere except China).
type censorRule struct {
	country  string
	names    []string
	cats     []domains.Category
	coverage float64
	// landing overrides the landing-page country (Estonian resolvers
	// answer with IPs assigned to Russian censorship).
	landing string
	gfw     bool
}

// gfwNames are the domains the Chinese injector reacts to. The set drives
// Figure 4 (Facebook/Twitter/YouTube) and the Ads/Misc censorship spikes
// of Table 5.
var gfwNames = []string{
	"facebook.com", "twitter.com", "youtube.com", "instagram.com",
	"pagead.syndication.example", "wikileaks.org",
}

var censorRules = buildCensorRules()

// censorRulesOf lists, per geodb.Countries index, the indices of the
// country's censorRules in table order, so a decision walks only the
// rules that can match. The order within a country is the table's: the
// first match wins and the compliance draw keys on the table index,
// exactly as a full walk would.
var censorRulesOf = func() [][]int {
	m := make([][]int, len(geodb.Countries))
	for ri := range censorRules {
		ci := countryIdxOf(censorRules[ri].country)
		if ci < 0 {
			panic("wildnet: censoring country " + censorRules[ri].country + " is not a geodb country")
		}
		m[ci] = append(m[ci], ri)
	}
	return m
}()

// censorRulesFor returns censorRulesOf for a country index, none for -1.
//
//lint:hotpath per-probe censorship lookup
func censorRulesFor(ci int) []int {
	if ci < 0 {
		return nil
	}
	return censorRulesOf[ci]
}

func buildCensorRules() []censorRule {
	rules := []censorRule{
		{country: "CN", names: gfwNames, coverage: 0.997, gfw: true},
		{country: "IR", names: []string{"facebook.com", "twitter.com", "youtube.com"}, coverage: 0.95},
		{country: "IR", cats: []domains.Category{domains.Adult, domains.Dating}, coverage: 0.90},
		{country: "ID", names: []string{"adultfinder.com"}, coverage: 0.916},
		{country: "ID", names: []string{"youporn.com"}, coverage: 0.60},
		{country: "ID", names: []string{"xhamster.com"}, coverage: 0.287},
		{country: "ID", names: []string{"redtube.com"}, coverage: 0.45},
		{country: "ID", names: []string{"blogspot.com"}, coverage: 0.885},
		{country: "ID", names: []string{"rotten.com"}, coverage: 0.80},
		{country: "ID", cats: []domains.Category{domains.Gambling}, coverage: 0.30},
		{country: "ID", cats: []domains.Category{domains.Dating}, coverage: 0.60},
		{country: "TR", cats: []domains.Category{domains.Adult}, coverage: 0.90},
		{country: "TR", names: []string{"rotten.com", "wikileaks.org"}, coverage: 0.90},
		{country: "TR", cats: []domains.Category{domains.Filesharing}, coverage: 0.85},
		{country: "TR", cats: []domains.Category{domains.Gambling}, coverage: 0.70},
		{country: "TR", cats: []domains.Category{domains.Dating}, coverage: 0.50},
		{country: "MY", names: []string{"youporn.com"}, coverage: 0.55},
		{country: "MY", cats: []domains.Category{domains.Adult}, coverage: 0.35},
		{country: "MN", cats: []domains.Category{domains.Adult}, coverage: 0.789},
		{country: "GR", names: []string{"bet-at-home.com", "pokerstars.com"}, coverage: 0.839},
		{country: "BE", names: []string{"bet-at-home.com", "pokerstars.com"}, coverage: 0.786},
		{country: "IT", cats: []domains.Category{domains.Gambling, domains.Filesharing}, coverage: 0.693},
		{country: "RU", cats: []domains.Category{domains.Filesharing}, coverage: 0.50},
		{country: "RU", cats: []domains.Category{domains.Gambling}, coverage: 0.40},
		{country: "RU", names: []string{"wikileaks.org"}, coverage: 0.60},
		{country: "EE", cats: []domains.Category{domains.Gambling}, coverage: 0.569, landing: "RU"},
	}
	// Every remaining censor country blocks adult and gambling content
	// with country-specific coverage, giving the >3M "other countries"
	// censorship population of §4.2.
	covered := map[string]bool{}
	for _, r := range rules {
		covered[r.country] = true
	}
	for i, cc := range CensorCountries {
		if covered[cc] {
			continue
		}
		cov := 0.30 + 0.45*prand.UnitOf(0xCE4504, uint64(i))
		rules = append(rules, censorRule{
			country:  cc,
			cats:     []domains.Category{domains.Adult, domains.Gambling},
			coverage: cov,
		})
	}
	return rules
}

func (r *censorRule) matches(name string, cat domains.Category) bool {
	for _, n := range r.names {
		if n == name {
			return true
		}
	}
	for _, c := range r.cats {
		if c == cat {
			return true
		}
	}
	return false
}

// CensorDecision returns how the resolver with the given profile censors a
// lookup of name, if at all. The compliance draw is per (resolver, rule),
// so one resolver either censors a whole rule's domain set or none of it,
// as ISP-level filtering does.
func (w *World) CensorDecision(p *Profile, name string) (CensorMode, uint32) {
	cn := dnswire.CanonicalName(name)
	d, _ := domains.ByName(cn)
	return w.censorDecision(p, cn, d.Category)
}

// censorDecision is CensorDecision for a caller that has already
// canonicalised the name and looked up its scan-list category (the zero
// Category for an unlisted name), as the DNS handler has.
func (w *World) censorDecision(p *Profile, cn string, cat domains.Category) (CensorMode, uint32) {
	for _, ri := range censorRulesFor(p.countryIdx()) {
		r := &censorRules[ri]
		if !r.matches(cn, cat) {
			continue
		}
		if prand.UnitOf(p.Identity, facetCensor, uint64(ri)) >= r.coverage {
			continue
		}
		if r.gfw {
			return CensorGFW, w.gfwRandomAddr(p.Identity, cn)
		}
		landingCountry := r.country
		if r.landing != "" {
			landingCountry = r.landing
		}
		variant := int(prand.Hash(p.Identity, facetCensor, 0xBEEF) % 64)
		return CensorLanding, w.CensorPageAddr(landingCountry, variant)
	}
	return CensorNone, 0
}

// gfwListed reports whether the injector reacts to a name in canonical
// form, independent of any resolver (injection triggers even for probes to
// non-resolver hosts in Chinese address space, §4.2).
func gfwListed(cn string) bool {
	for _, n := range gfwNames {
		if n == cn {
			return true
		}
	}
	return false
}

// gfwMatchesWire is gfwListed over a wire-view name (raw bytes, original
// case, no trailing dot — the form Unpack and View.QName share), kept
// alloc-free for the transport fast path. Equivalent because gfwNames are
// canonical and CanonicalName only lowercases and strips a trailing dot.
//
//lint:hotpath per-probe CN injector filter
func gfwMatchesWire(name []byte) bool {
	for _, n := range gfwNames {
		if len(name) == len(n) && asciiEqualFold(name, n) {
			return true
		}
	}
	return false
}

// gfwDeafTo reports whether the injector ignores every instance of a
// census template, so that a probe into empty Chinese space carrying it
// can be rejected unbuilt. The injector reacts only to an A question for
// a GFW-listed name (cnCouldAnswer), and every instance asks one QTYPE
// under a name of one length: 40 bytes at the scan base, longer than any
// listed name.
func gfwDeafTo(q *dnswire.CensusQuery) bool {
	if q.QType() != dnswire.TypeA {
		return true
	}
	for _, n := range gfwNames {
		if len(n) == q.NameLen() {
			return false
		}
	}
	return true
}

// asciiEqualFold compares equal-length names ASCII case-insensitively.
//
//lint:hotpath per-probe CN injector filter
func asciiEqualFold(b []byte, s string) bool {
	for i := 0; i < len(s); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// gfwRandomAddr synthesizes the injector's bogus answer, stable per
// (resolver, domain). The documented poison pool mixes dark addresses
// with real-but-unrelated hosts, so a substantial share of injected
// answers points at machines that serve *something* (typically an error
// page or an unrelated website) — which is why the paper still obtained
// HTTP payload for most tuples and why the Alexa column of Table 5 is
// heavy on HTTP errors.
func (w *World) gfwRandomAddr(id uint64, cn string) uint32 {
	h := prand.Hash(id, 0x6F3, prand.FNV(cn))
	switch v := prand.Float64(h); {
	case v < 0.25:
		return w.infra.addrOf(RoleErrorPage, prand.IntN(prand.Mix64(h), nErrorPage))
	case v < 0.40:
		return w.infra.addrOf(RoleSiteHost, prand.IntN(prand.Mix64(h), nSiteHost))
	default:
		return w.Mask(uint32(h))
	}
}
