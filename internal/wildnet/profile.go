package wildnet

import (
	"math"

	"goingwild/internal/devices"
	"goingwild/internal/prand"
	"goingwild/internal/software"
)

// RCodeClass buckets resolvers by the status code of their scan responses
// (Figure 1 tracks NOERROR, REFUSED, and SERVFAIL populations).
type RCodeClass uint8

// Response-code classes.
const (
	RCNoError RCodeClass = iota
	RCRefused
	RCServFail
)

// Manip is a resolver's resolution-manipulation profile (§3.1/§4). The
// overwhelming majority is honest; the rest implements the behaviors the
// classification pipeline must recover.
type Manip uint8

// Manipulation profiles.
const (
	ManipHonest       Manip = iota
	ManipProtect            // DNS protection: blocks malware domains
	ManipEmptyAll           // NOERROR with empty answer section for everything
	ManipNXMonetize         // redirects NXDOMAIN traffic (error monetization)
	ManipStaticIP           // one static IP for every domain
	ManipSelfIP             // its own IP for every domain (router/camera logins)
	ManipCaptiveLAN         // LAN or same-/24 addresses (captive portals)
	ManipWildPark           // parking IPs for everything
	ManipStaleMis           // stale/misconfigured: error-page or dead-CDN IPs
	ManipNSOnly             // answers with NS records only, denying recursion
	ManipMailRedir          // MX hosts redirected to listening mail servers
	ManipAdRedirect         // ad domains to ad-injection hosts (281 resolvers)
	ManipAdBlock            // ad domains to empty placeholders (14 resolvers)
	ManipAdFakeSearch       // search pages with extra ad banners (7 resolvers)
	ManipProxyTLS           // transparent proxies with valid certs (99 resolvers)
	ManipProxyPlain         // HTTP-only transparent proxies (10,179 resolvers)
	ManipPhishPayPal        // PayPal phishing (176 resolvers)
	ManipPhishBankBR        // Italian bank phish, Brazilian host (285 resolvers)
	ManipPhishBankRU        // Italian bank phish, Russian host (46 resolvers)
	ManipPhishOther         // other domain-specific phishing (≈850 resolvers)
	ManipMalware            // fake Flash/Java update pages (228 resolvers)
)

// ChaosClass buckets resolvers by their CHAOS version-query behavior
// (§2.4: 42.7% error, 4.6% empty, 18.8% hidden string, 33.9% versioned).
type ChaosClass uint8

// CHAOS response classes.
const (
	ChaosError ChaosClass = iota
	ChaosEmptyVersion
	ChaosHidden
	ChaosVersioned
)

// UtilClass buckets resolvers by cache-snooping behavior (§2.6).
type UtilClass uint8

// Utilization classes.
const (
	UtilEmptyNS    UtilClass = iota // empty responses instead of NS records (7.3%)
	UtilSingleStop                  // one response per TLD, then silence (3.3%)
	UtilStaticTTL                   // static or zero TTLs (4.0%)
	UtilInUseFast                   // re-cached within 5s of expiry (38.7%)
	UtilInUseSlow                   // re-cached eventually (22.9%)
	UtilDecreasing                  // decreasing TTL, no expiry observed (4.0%)
	UtilResetting                   // TTL reset ahead of expiry (19.6%)
)

// Profile is the full behavioral identity of a resolver at one lease.
type Profile struct {
	Identity   uint64
	RCode      RCodeClass
	Manip      Manip
	MisSourced bool
	Chaos      ChaosClass
	// SoftwareIdx indexes software.Catalog when Chaos == ChaosVersioned;
	// HiddenIdx indexes software.HiddenStrings when Chaos == ChaosHidden.
	SoftwareIdx int
	HiddenIdx   int
	// DeviceIdx indexes devices.Catalog, or -1 when the host exposes no
	// TCP services (73.7% of resolvers).
	DeviceIdx int
	Util      UtilClass
	GFWDouble bool
	Country   string
}

// Manipulation profile probabilities (share of NOERROR resolvers).
const (
	pProtect    = 0.0100
	pEmptyAll   = 0.0300
	pNXMonetize = 0.1120
	pStaticIP   = 0.0036
	pSelfIP     = 0.0012
	pCaptiveLAN = 0.0024
	pWildPark   = 0.0045
	pStaleMis   = 0.0105
	pNSOnly     = 0.0018
	pMailRedir  = 0.0080
)

// pTCPResponsive is the share of resolvers exposing at least one TCP
// service usable for device fingerprinting (§2.4: 26.3%).
const pTCPResponsive = 0.263

// pMisSourced is the share of resolvers whose responses arrive from a
// different source address (multi-homed hosts and DNS proxies, §2.2:
// 630k–750k of ≈25M per week).
const pMisSourced = 0.027

// pRefusedBase is the REFUSED share of the responder population at week
// 0. Figure 1 shows the REFUSED population staying flat while the total
// declines, so the share grows inversely with the world decline.
const pRefusedBase = 0.080

// servFailShare returns the week's SERVFAIL share; the population
// fluctuates between ≈0.63M and ≈2.14M of ≈31M responders.
func servFailShare(week int) float64 {
	return 0.044 + 0.024*math.Sin(float64(week)*0.55+1.3)
}

// ProfileAt returns the full profile of the resolver at u. ok is false
// when no resolver answers at u at time t. A profile derived for the same
// address and hour comes out of the world's memo (profilememo.go); every
// other call derives it, counted in wildnet.profile.derived.
func (w *World) ProfileAt(u uint32, t Time) (Profile, bool) {
	u = w.Mask(u)
	key, memo := profileKey(u, t)
	var p Profile
	if memo && w.prof.lookup(u, key, &p) {
		p.Country = w.geo.ASOfU32(u).Country
		return p, true
	}
	w.profDerived.Inc()
	p, ok := w.deriveProfile(u, t)
	if ok && memo {
		w.prof.store(u, key, &p)
	}
	return p, ok
}

// deriveProfile computes ProfileAt for the masked address u without the
// memo. The lease epoch is derived once, for the slot draw and for the
// identity, and the week's constants — density, REFUSED and SERVFAIL
// shares — come from the block cache.
func (w *World) deriveProfile(u uint32, t Time) (Profile, bool) {
	wk := w.blockCache(t.Week)
	station, isStation := w.stations[u]
	var id uint64
	if isStation {
		id = prand.Hash(w.cfg.Seed, uint64(u)) // stations never churn
	} else {
		epoch, ok := w.resolverEpoch(u, t, wk)
		if !ok {
			return Profile{}, false
		}
		id = prand.Hash(w.cfg.Seed, uint64(u), epoch)
	}
	country := w.geo.ASOfU32(u).Country
	p := Profile{Identity: id, Country: country, SoftwareIdx: -1, HiddenIdx: -1, DeviceIdx: -1}

	// Response-code class. The REFUSED share grows as the population
	// declines so its absolute count stays flat (Figure 1).
	r := prand.UnitOf(id, facetRCode)
	switch {
	case isStation:
		p.RCode = RCNoError
	case r < wk.pRefused:
		p.RCode = RCRefused
	case r < wk.pRefused+wk.pServFail:
		p.RCode = RCServFail
	default:
		p.RCode = RCNoError
	}

	// Manipulation profile.
	if isStation {
		p.Manip = station
	} else if p.RCode == RCNoError {
		p.Manip = drawManip(id)
	}

	p.MisSourced = prand.UnitOf(id, facetMisSourced) < pMisSourced
	if country == "CN" {
		p.GFWDouble = prand.UnitOf(id, facetGFWDouble) < 0.024
	}

	// CHAOS class and software.
	c := prand.UnitOf(id, facetSoftware)
	switch {
	case c < 0.427:
		p.Chaos = ChaosError
	case c < 0.427+0.046:
		p.Chaos = ChaosEmptyVersion
	case c < 0.427+0.046+0.188:
		p.Chaos = ChaosHidden
		p.HiddenIdx = prand.IntN(prand.Hash(id, facetVersionHide), len(software.HiddenStrings))
	default:
		p.Chaos = ChaosVersioned
		p.SoftwareIdx = pickWeighted(prand.UnitOf(id, facetVersionHide, 1), softwareWeights)
	}

	// Device (TCP services).
	if prand.UnitOf(id, facetTCPSvc) < pTCPResponsive {
		p.DeviceIdx = pickWeighted(prand.UnitOf(id, facetDevice), deviceWeights)
	}

	// Utilization class.
	uu := prand.UnitOf(id, facetUtilization)
	switch {
	case uu < 0.073:
		p.Util = UtilEmptyNS
	case uu < 0.073+0.033:
		p.Util = UtilSingleStop
	case uu < 0.073+0.033+0.040:
		p.Util = UtilStaticTTL
	case uu < 0.073+0.033+0.040+0.387:
		p.Util = UtilInUseFast
	case uu < 0.073+0.033+0.040+0.387+0.229:
		p.Util = UtilInUseSlow
	case uu < 0.073+0.033+0.040+0.387+0.229+0.040:
		p.Util = UtilDecreasing
	default:
		p.Util = UtilResetting
	}
	return p, true
}

// drawManip assigns the common (density-scaled) manipulation profiles.
// Rare case-study behaviors live on fixed stations instead.
func drawManip(id uint64) Manip {
	v := prand.UnitOf(id, facetProfile)
	acc := 0.0
	for _, e := range manipTable {
		acc += e.p
		if v < acc {
			return e.m
		}
	}
	return ManipHonest
}

var manipTable = []struct {
	m Manip
	p float64
}{
	{ManipProtect, pProtect},
	{ManipEmptyAll, pEmptyAll},
	{ManipNXMonetize, pNXMonetize},
	{ManipStaticIP, pStaticIP},
	{ManipSelfIP, pSelfIP},
	{ManipCaptiveLAN, pCaptiveLAN},
	{ManipWildPark, pWildPark},
	{ManipStaleMis, pStaleMis},
	{ManipNSOnly, pNSOnly},
	{ManipMailRedir, pMailRedir},
}

var softwareWeights = func() []float64 {
	out := make([]float64, len(software.Catalog))
	for i, e := range software.Catalog {
		out[i] = e.Weight
	}
	return out
}()

var deviceWeights = func() []float64 {
	out := make([]float64, len(devices.Catalog))
	for i, m := range devices.Catalog {
		out[i] = m.Weight
	}
	return out
}()

func pickWeighted(u float64, weights []float64) int {
	return prand.Pick(u, weights)
}

// rareStation describes one fixed-population behavior class.
type rareStation struct {
	manip Manip
	paper int // resolver count at paper scale
}

var rareStations = []rareStation{
	{ManipAdRedirect, 281},
	{ManipAdBlock, 14},
	{ManipAdFakeSearch, 7},
	{ManipProxyTLS, 99},
	{ManipProxyPlain, 10179},
	{ManipPhishPayPal, 176},
	{ManipPhishBankBR, 285},
	{ManipPhishBankRU, 46},
	{ManipPhishOther, 850},
	{ManipMalware, 228},
}

// minStationCount keeps rare behaviors measurable in scaled-down worlds.
const minStationCount = 5

// buildStations places the rare-behavior resolvers at fixed addresses.
func (w *World) buildStations() map[uint32]Manip {
	out := make(map[uint32]Manip)
	for si, rs := range rareStations {
		n := int(float64(rs.paper)/w.scale + 0.5)
		if n < minStationCount {
			n = minStationCount
		}
		// Keep relative magnitudes visible even in tiny worlds: the
		// large classes (e.g. the 10,179 HTTP-only proxy resolvers)
		// stay clearly bigger than the small ones.
		if rs.paper >= 1000 && n < 2*minStationCount {
			n = 2 * minStationCount
		}
		// The two bank phishing hosts are single IPs; their resolver
		// populations sit in specific countries (handled by content,
		// not placement).
		for i, placed := 0, 0; placed < n; i++ {
			u := w.Mask(uint32(prand.Hash(w.cfg.Seed, 0x57A710, uint64(si), uint64(i))))
			if w.infra.roleOf(u) != RoleNone {
				continue
			}
			if _, taken := out[u]; taken {
				continue
			}
			out[u] = rs.manip
			placed++
		}
	}
	return out
}

// StationCount returns how many rare-behavior resolvers of a class exist
// in this world (for report extrapolation).
func (w *World) StationCount(m Manip) int {
	n := 0
	for _, v := range w.stations {
		if v == m {
			n++
		}
	}
	return n
}
