package wildnet

import (
	"fmt"
	"strconv"
	"strings"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/geodb"
	"goingwild/internal/lfsr"
	"goingwild/internal/prand"
)

// This file models the authoritative side of the DNS hierarchy: the
// legitimate A records for every scan domain (including the geo-dependent
// answers of CDN-hosted domains that make prefiltering hard, §3.4), the
// ground-truth zone the measurement team operates, and reverse DNS.

// cdnRegions is the number of distinct answer regions a CDN serves.
const cdnRegions = 8

// countryIdxOf returns the geodb.Countries index of a country code, -1
// for a code outside it.
func countryIdxOf(code string) int {
	if i, ok := geodb.CountryIndex[code]; ok {
		return i
	}
	return -1
}

// RegionOf maps a country to its CDN answer region.
func RegionOf(country string) int { return regionOfIdx(countryIdxOf(country)) }

// regionOfIdx is RegionOf for a geodb.Countries index, -1 for none.
//
//lint:hotpath per-probe CDN-region lookup
func regionOfIdx(ci int) int {
	if ci < 0 {
		return 0
	}
	return ci % cdnRegions
}

// vantageCountry is where the measurement host (and its trusted
// resolvers) sit; the authors scanned from a German university network.
const vantageCountry = "DE"

// LegitAddrs returns the legitimate A-record set for a scan-list domain as
// observed from the given requester country, plus the response code. For
// CDN domains the answer differs per region; for nonexistent domains the
// rcode is NXDOMAIN with no addresses.
func (w *World) LegitAddrs(name string, requesterCountry string) ([]uint32, dnswire.RCode) {
	cn := dnswire.CanonicalName(name)
	d, listed := domains.ByName(cn)
	return w.legitAddrs(nil, cn, d, listed, requesterCountry)
}

// legitAddrs is LegitAddrs for a caller that has already canonicalised
// the name and looked it up in the scan list, as the DNS handler has. The
// answer set (at most four addresses) is appended to dst.
func (w *World) legitAddrs(dst []uint32, cn string, d domains.Domain, listed bool, requesterCountry string) ([]uint32, dnswire.RCode) {
	if cn == domains.GroundTruth || strings.HasSuffix(cn, "."+domains.GroundTruth) {
		return append(dst, w.infra.addrOf(RoleSiteHost, 0)), dnswire.RCodeNoError
	}
	if strings.HasSuffix(cn, "."+domains.ScanBase) || cn == domains.ScanBase {
		// Any name under the scan base resolves; the A record carries
		// the encoded target back (the zone is wildcarded).
		if target, err := dnswire.DecodeTargetQName(cn, domains.ScanBase); err == nil {
			return append(dst, w.Mask(lfsr.AddrToU32(target))), dnswire.RCodeNoError
		}
		return append(dst, w.infra.addrOf(RoleSiteHost, 1)), dnswire.RCodeNoError
	}
	if ip, ok := w.rdnsRoundTrip(cn); ok {
		return append(dst, ip), dnswire.RCodeNoError
	}
	if !listed {
		// Unlisted names (sub-resolutions from redirects) hash onto a
		// stable site-host slot.
		h := w.pre[facetInfra].Add(hashString(cn)).Sum()
		return append(dst, w.infra.addrOf(RoleSiteHost, 2+prand.IntN(h, nSiteHost-2))), dnswire.RCodeNoError
	}
	switch d.Kind {
	case domains.KindNonexistent:
		return dst, dnswire.RCodeNXDomain
	case domains.KindMailHost:
		return append(dst, w.mailLegitAddr(cn)), dnswire.RCodeNoError
	case domains.KindCDN:
		return w.cdnAddrs(dst, cn, RegionOf(requesterCountry)), dnswire.RCodeNoError
	default:
		return w.ordinaryAddrs(dst, cn), dnswire.RCodeNoError
	}
}

// TrustedResolve performs the lookup the measurement team's own trusted
// recursive resolvers would, i.e. from the vantage region (§3.4 rule i).
func (w *World) TrustedResolve(name string) ([]uint32, dnswire.RCode) {
	return w.LegitAddrs(name, vantageCountry)
}

// ordinaryAddrs appends the fixed 1–3 hosting addresses of a non-CDN
// domain, all within one owner network.
func (w *World) ordinaryAddrs(dst []uint32, cn string) []uint32 {
	h := w.pre[facetInfra].Add(hashString(cn)).Add(1).Sum()
	n := 1 + prand.IntN(h, 3)
	base := 8 + prand.IntN(prand.Mix64(h), nSiteHost-16)
	for i := 0; i < n; i++ {
		dst = append(dst, w.infra.addrOf(RoleSiteHost, base+i))
	}
	return dst
}

// cdnAddrs appends a CDN domain's 2–4 deployment addresses for one
// region. A small share of slots point at currently-dead content nodes,
// which is what leaves some tuples without HTTP payload (§4.2).
func (w *World) cdnAddrs(dst []uint32, cn string, region int) []uint32 {
	h := w.pre[facetRegion].Add(hashString(cn)).Add(uint64(region)).Sum()
	n := 2 + prand.IntN(h, 3)
	for i := 0; i < n; i++ {
		hi := prand.Hash(h, uint64(i))
		if prand.Float64(hi) < 0.003 {
			dst = append(dst, w.infra.addrOf(RoleDeadCDN, prand.IntN(hi, nDeadCDN)))
			continue
		}
		dst = append(dst, w.infra.addrOf(RoleCDNNode, prand.IntN(hi, nCDNNode)))
	}
	return dst
}

// mailLegitAddr returns the provider's real mail host address.
func (w *World) mailLegitAddr(cn string) uint32 {
	provider := mailProviderOf(cn)
	slot := provider*4 + mailProtoOf(cn)
	return w.infra.addrOf(RoleMailLegit, slot)
}

// mailProviderOf maps an MX-set hostname to its provider index (6
// providers: Aim, Gmail, Mail.me, Outlook, Yahoo, Yandex).
func mailProviderOf(cn string) int {
	switch {
	case strings.Contains(cn, "aim.com"):
		return 0
	case strings.Contains(cn, "gmail.com"):
		return 1
	case strings.Contains(cn, "mail.me.com"):
		return 2
	case strings.Contains(cn, "outlook.com"):
		return 3
	case strings.Contains(cn, "yahoo.com"):
		return 4
	default:
		return 5 // yandex
	}
}

// mailProtoOf maps a hostname to its protocol slot (imap/pop/smtp).
func mailProtoOf(cn string) int {
	switch {
	case strings.HasPrefix(cn, "imap"):
		return 0
	case strings.HasPrefix(cn, "pop"):
		return 1
	default:
		return 2
	}
}

// RDNS returns the PTR target of an address, or "" when none exists.
// Infrastructure addresses carry role-appropriate names; about half the
// ordinary-domain site hosts publish a PTR equal to the domain they host,
// which is what prefilter rule (ii) keys on.
func (w *World) RDNS(u uint32) string {
	u = w.Mask(u)
	role, idx := w.infra.roleParam(u)
	switch role {
	case RoleNone:
		return w.geo.RDNSName(w.cfg.Seed, u)
	case RoleSiteHost:
		if d := w.siteHostDomain(idx); d != "" {
			if w.pre[facetInfra].Add(0x7D45).Add(uint64(idx)).Unit() < 0.5 {
				return d
			}
			return fmt.Sprintf("web%d.hosting-%02d.example", idx, idx%7)
		}
		return fmt.Sprintf("web%d.hosting-%02d.example", idx, idx%7)
	case RoleCDNNode, RoleDeadCDN:
		return fmt.Sprintf("a%d.deploy.static.cdn-global.example", idx)
	case RoleMailLegit:
		return fmt.Sprintf("mail%d.provider%d.example", idx%4, idx/4)
	case RoleAuthNS:
		return fmt.Sprintf("ns%d.dnsstudy.example.edu", idx)
	case RoleTrustedDNS:
		return fmt.Sprintf("resolver%d.dnsstudy.example.edu", idx)
	case RoleCensorPage:
		return "" // censorship landing pages publish no rDNS
	case RoleParking:
		return fmt.Sprintf("park%d.parking-pages.example", idx)
	case RoleErrorPage:
		return fmt.Sprintf("srv%d.shared-hosting.example", idx)
	case RoleLoginPortal:
		return fmt.Sprintf("portal%d.access.example", idx)
	default:
		return ""
	}
}

// siteHostDomain returns the ordinary scan domain hosted at a site-host
// slot, or "" when the slot hosts no scan-list domain. Slot assignment
// mirrors ordinaryAddrs.
func (w *World) siteHostDomain(idx int) string {
	for _, d := range domains.List {
		if d.Kind != domains.KindOrdinary {
			continue
		}
		h := w.pre[facetInfra].Add(hashString(d.Name)).Add(1).Sum()
		n := 1 + prand.IntN(h, 3)
		base := 8 + prand.IntN(prand.Mix64(h), nSiteHost-16)
		if idx >= base && idx < base+n {
			return d.Name
		}
	}
	return ""
}

// rdnsRoundTrip recognizes the A-lookup of an rDNS name and returns the
// address it refers to, closing the verification loop of prefilter rule
// (ii): only the true owner can make A(rdns) come back to the IP.
func (w *World) rdnsRoundTrip(cn string) (uint32, bool) {
	// Resolver-space names: "<tok>-a-b-c-d.<as>.example" or
	// "a-b-c-d.<tok>.<as>.example".
	if !strings.HasSuffix(cn, ".example") {
		return 0, false
	}
	first := cn
	if i := strings.IndexByte(cn, '.'); i > 0 {
		first = cn[:i]
	}
	// The last four dash-separated fields are the octets.
	if strings.Count(first, "-") < 3 {
		return 0, false
	}
	var u uint32
	for shift, end := 0, len(first); shift < 32; shift += 8 {
		i := strings.LastIndexByte(first[:end], '-')
		v, err := strconv.Atoi(first[i+1 : end])
		if err != nil || v < 0 || v > 255 {
			return 0, false
		}
		u |= uint32(v) << shift
		end = max(i, 0)
	}
	u = w.Mask(u)
	// Verify this really is the address's rDNS name.
	if w.RDNS(u) == cn {
		return u, true
	}
	return 0, false
}

// PTRName builds the in-addr.arpa name for an address.
func PTRName(u uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa", u&0xFF, u>>8&0xFF, u>>16&0xFF, u>>24)
}

// ParsePTRName extracts the address from an in-addr.arpa name.
func ParsePTRName(name string) (uint32, bool) {
	cn := dnswire.CanonicalName(name)
	if !strings.HasSuffix(cn, ".in-addr.arpa") {
		return 0, false
	}
	parts := strings.Split(strings.TrimSuffix(cn, ".in-addr.arpa"), ".")
	if len(parts) != 4 {
		return 0, false
	}
	var u uint32
	for i := 3; i >= 0; i-- {
		v, err := strconv.Atoi(parts[i])
		if err != nil || v < 0 || v > 255 {
			return 0, false
		}
		u = u<<8 | uint32(v)
	}
	return u, true
}

func hashString(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}
