package wildnet

import (
	"sort"

	"goingwild/internal/lfsr"
	"goingwild/internal/prand"
)

// Role classifies what a non-resolver infrastructure address serves. The
// manipulated DNS answers of §4 point into these ranges; the HTTP(S) and
// mail content simulator keys its pages off the role.
type Role uint8

// Infrastructure roles.
const (
	RoleNone         Role = iota
	RoleAuthNS            // authoritative name servers (incl. the GT zone)
	RoleCensorPage        // censorship landing pages (299 IPs, 34 countries)
	RoleParking           // domain parking / reseller landing pages
	RoleSearchPage        // search pages NX traffic is monetized with
	RoleAdInjectHTML      // ad replacement: banners injected into HTML (2 IPs)
	RoleAdInjectJS        // ad replacement: suspicious JavaScript (2 IPs)
	RoleAdBlockEmpty      // ad blocking: empty placeholders (7 IPs)
	RoleAdFakeSearch      // Google-lookalike search with extra banners (2 IPs)
	RoleProxyTLS          // transparent proxies with valid certificates (10 IPs)
	RoleProxyPlain        // transparent HTTP-only proxies (10 IPs)
	RolePhishPayPal       // PayPal phishing (16 IPs)
	RolePhishBankBR       // Italian-bank phishing host in Brazil (1 IP)
	RolePhishBankRU       // Italian-bank phishing host in Russia (1 IP)
	RolePhishOther        // other domain-specific phishing hosts (21 IPs)
	RoleMailSniff         // mail servers listening on redirected MX traffic
	RoleMalware           // fake Flash/Java update pages serving downloaders (30 IPs)
	RoleBlockPage         // parental-control / ISP / security blocking pages
	RoleErrorPage         // web servers answering 4xx/5xx or error pages
	RoleLoginPortal       // captive portals, hotel/university logins, webmail
	RoleSiteHost          // legitimate hosting of ordinary scan domains
	RoleCDNNode           // legitimate CDN deployment nodes
	RoleDeadCDN           // CDN nodes currently serving nothing (§4.2)
	RoleMailLegit         // the mail providers' real IMAP/POP3/SMTP hosts
	RoleTrustedDNS        // the measurement team's own recursive resolvers
)

// String returns a stable lowercase name for the role.
func (r Role) String() string {
	names := map[Role]string{
		RoleNone: "none", RoleAuthNS: "authns", RoleCensorPage: "censor",
		RoleParking: "parking", RoleSearchPage: "search",
		RoleAdInjectHTML: "ad-inject-html", RoleAdInjectJS: "ad-inject-js",
		RoleAdBlockEmpty: "ad-block", RoleAdFakeSearch: "ad-fake-search",
		RoleProxyTLS: "proxy-tls", RoleProxyPlain: "proxy-plain",
		RolePhishPayPal: "phish-paypal", RolePhishBankBR: "phish-bank-br",
		RolePhishBankRU: "phish-bank-ru", RolePhishOther: "phish-other",
		RoleMailSniff: "mail-sniff", RoleMalware: "malware",
		RoleBlockPage: "block-page", RoleErrorPage: "error-page",
		RoleLoginPortal: "login-portal", RoleSiteHost: "site-host",
		RoleCDNNode: "cdn-node", RoleDeadCDN: "dead-cdn",
		RoleMailLegit: "mail-legit", RoleTrustedDNS: "trusted-dns",
	}
	if s, ok := names[r]; ok {
		return s
	}
	return "unknown"
}

// CensorCountries are the 34 countries operating censorship landing pages
// (§4.2 identifies 299 landing IPs related to 34 countries).
var CensorCountries = []string{
	"CN", "IR", "ID", "TR", "MY", "MN", "GR", "BE", "IT", "RU",
	"EE", "SA", "AE", "PK", "VN", "TH", "EG", "DZ", "MA", "TN",
	"SY", "IQ", "JO", "KW", "BD", "LK", "KZ", "UA", "BG", "RO",
	"HU", "IN", "KR", "SG",
}

// censorSlotsPerCountry bounds each country's landing-page allocation.
const censorSlotsPerCountry = 15

// infraRange describes one carved-out block of infrastructure addresses.
type infraRange struct {
	role Role
	off  uint32 // offset of the range within the infra region
	size uint32
}

// infraMap lays out the infrastructure region at the top of the address
// space. Range sizes are fixed so role parameters are stable across
// address-space orders.
type infraMap struct {
	base   uint32 // first infrastructure address
	total  uint32
	ranges []infraRange // sorted by off
}

// Infrastructure range sizes.
const (
	nAuthNS      = 16
	nCensor      = 34 * censorSlotsPerCountry // 510 slots, ≈299 active
	nParking     = 64
	nSearch      = 16
	nAdInjHTML   = 2
	nAdInjJS     = 2
	nAdBlock     = 7
	nAdFake      = 2
	nProxyTLS    = 10
	nProxyPlain  = 10
	nPhishPayPal = 16
	nPhishOther  = 21
	nMailSniff   = 128
	nMalware     = 30
	nBlockPage   = 128
	nErrorPage   = 512
	nLoginPortal = 128
	nSiteHost    = 1024
	nCDNNode     = 1024
	nDeadCDN     = 64
	nMailLegit   = 32
	nTrustedDNS  = 4
)

func buildInfraMap(w *World) infraMap {
	sizes := []struct {
		role Role
		n    uint32
	}{
		{RoleAuthNS, nAuthNS},
		{RoleCensorPage, nCensor},
		{RoleParking, nParking},
		{RoleSearchPage, nSearch},
		{RoleAdInjectHTML, nAdInjHTML},
		{RoleAdInjectJS, nAdInjJS},
		{RoleAdBlockEmpty, nAdBlock},
		{RoleAdFakeSearch, nAdFake},
		{RoleProxyTLS, nProxyTLS},
		{RoleProxyPlain, nProxyPlain},
		{RolePhishPayPal, nPhishPayPal},
		{RolePhishBankBR, 1},
		{RolePhishBankRU, 1},
		{RolePhishOther, nPhishOther},
		{RoleMailSniff, nMailSniff},
		{RoleMalware, nMalware},
		{RoleBlockPage, nBlockPage},
		{RoleErrorPage, nErrorPage},
		{RoleLoginPortal, nLoginPortal},
		{RoleSiteHost, nSiteHost},
		{RoleCDNNode, nCDNNode},
		{RoleDeadCDN, nDeadCDN},
		{RoleMailLegit, nMailLegit},
		{RoleTrustedDNS, nTrustedDNS},
	}
	m := infraMap{}
	var off uint32
	for _, s := range sizes {
		m.ranges = append(m.ranges, infraRange{role: s.role, off: off, size: s.n})
		off += s.n
	}
	m.total = off
	space := uint32(w.SpaceSize() - 1)
	m.base = space - m.total + 1
	return m
}

// roleOf returns the role of an address, or RoleNone for ordinary space.
func (m *infraMap) roleOf(u uint32) Role {
	r, _ := m.roleParam(u)
	return r
}

// roleParam returns the role of an address together with its index within
// the role's range.
func (m *infraMap) roleParam(u uint32) (Role, int) {
	if u < m.base {
		return RoleNone, 0
	}
	off := u - m.base
	i := sort.Search(len(m.ranges), func(i int) bool {
		return m.ranges[i].off+m.ranges[i].size > off
	})
	if i >= len(m.ranges) {
		return RoleNone, 0
	}
	r := m.ranges[i]
	return r.role, int(off - r.off)
}

// addrOf returns the address of slot idx inside the role's range.
func (m *infraMap) addrOf(role Role, idx int) uint32 {
	for _, r := range m.ranges {
		if r.role == role {
			if uint32(idx) >= r.size {
				idx = int(r.size) - 1
			}
			return m.base + r.off + uint32(idx)
		}
	}
	return m.base
}

// rangeSize returns the slot count of a role's range.
func (m *infraMap) rangeSize(role Role) int {
	for _, r := range m.ranges {
		if r.role == role {
			return int(r.size)
		}
	}
	return 0
}

// RoleOf exposes the infrastructure role of an address.
func (w *World) RoleOf(u uint32) (Role, int) {
	return w.infra.roleParam(w.Mask(u))
}

// ASNOf returns the autonomous system number of any address, as the
// public registry data would report it. Resolver space follows the
// geographic registry; infrastructure roles get their own allocations —
// notably CDN nodes, which deliberately scatter across ~50 ASes so that
// prefilter rule (i) cannot whitelist them from the trusted resolution
// alone (§3.4: "Akamai is directly associated with at least 8 ASes, yet
// also distributes their content in several other ASes").
func (w *World) ASNOf(u uint32) uint32 {
	role, idx := w.RoleOf(u)
	switch role {
	case RoleNone:
		return w.geo.LookupU32(w.Mask(u)).AS.ASN
	case RoleCDNNode, RoleDeadCDN:
		return 7000 + uint32(idx%53)
	case RoleSiteHost:
		return 8000 + uint32(idx/8)
	case RoleCensorPage:
		return 8200 + uint32(idx/censorSlotsPerCountry)
	default:
		return 8400 + uint32(role)
	}
}

// InfraRange returns the first infrastructure address and the range size.
// Scans blacklist this region the way the paper's operators excluded
// their own measurement hosts.
func (w *World) InfraRange() (base uint32, size uint32) {
	return w.infra.base, w.infra.total
}

// ScanBlacklist returns the blacklist a well-behaved scan of this world
// uses: the world's own measurement infrastructure. (Reserved IANA
// ranges are meaningful only at order 32; the scaled-down spaces fold
// them away.)
func (w *World) ScanBlacklist() *lfsr.Blacklist {
	bl := lfsr.NewBlacklist()
	bl.AddRange(w.infra.base, w.infra.base+w.infra.total-1)
	return bl
}

// RoleAddr returns the address of slot idx of a role's range.
func (w *World) RoleAddr(role Role, idx int) uint32 {
	return w.infra.addrOf(role, idx)
}

// CensorPageAddr returns the address of one of a country's censorship
// landing pages; variant spreads load across the country's slots. Returns
// 0 when the country operates no landing pages.
func (w *World) CensorPageAddr(country string, variant int) uint32 {
	ci := -1
	for i, c := range CensorCountries {
		if c == country {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0
	}
	// Each country activates 4–12 of its slots, totalling ≈299 IPs.
	active := 4 + prand.IntN(w.pre[facetInfra].Add(uint64(ci)).Sum(), 9)
	slot := ci*censorSlotsPerCountry + variant%active
	return w.infra.addrOf(RoleCensorPage, slot)
}

// CensorPageCountry returns the country operating the landing page at a
// RoleCensorPage slot.
func CensorPageCountry(slot int) string {
	ci := slot / censorSlotsPerCountry
	if ci < 0 || ci >= len(CensorCountries) {
		return ""
	}
	return CensorCountries[ci]
}

// ActiveCensorPages returns the number of activated landing-page IPs
// world-wide (the paper counts 299 across 34 countries).
func (w *World) ActiveCensorPages() int {
	total := 0
	for ci := range CensorCountries {
		total += 4 + prand.IntN(w.pre[facetInfra].Add(uint64(ci)).Sum(), 9)
	}
	return total
}
