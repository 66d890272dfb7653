package wildnet

import (
	"strings"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/prand"
)

// Amplification modeling: the paper repeatedly frames open resolvers as
// DDoS amplifiers (§1, §3, the authors' own USENIX Security 2014 study).
// ANY queries elicit responses whose size depends on how much the
// resolver is willing to stuff into a UDP answer; the survey in
// internal/ampli measures the resulting bandwidth amplification factors.

// AmpClass buckets resolvers by ANY-response behavior.
type AmpClass uint8

// Amplifier classes.
const (
	// AmpMinimal answers ANY with the A record only.
	AmpMinimal AmpClass = iota
	// AmpModerate adds NS and SOA records.
	AmpModerate
	// AmpLarge additionally returns bulky TXT records — the
	// monlist-grade amplifiers ripe for abuse.
	AmpLarge
	// AmpRefusesANY rejects ANY queries outright (the hardened
	// minority).
	AmpRefusesANY
)

// ampClassOf draws a resolver's amplifier class: roughly 10% large, 40%
// moderate, 45% minimal, 5% refusing — the long-tailed shape amplifier
// surveys report.
func ampClassOf(id uint64) AmpClass {
	v := prand.UnitOf(id, 0xA3B)
	switch {
	case v < 0.10:
		return AmpLarge
	case v < 0.50:
		return AmpModerate
	case v < 0.95:
		return AmpMinimal
	default:
		return AmpRefusesANY
	}
}

// AmpClassAt exposes the planted class for verification.
func (w *World) AmpClassAt(u uint32, t Time) (AmpClass, bool) {
	p, ok := w.ProfileAt(w.Mask(u), t)
	if !ok {
		return 0, false
	}
	return ampClassOf(p.Identity), true
}

// udpPayloadLimit returns the largest UDP response the resolver at u
// sends for a query whose OPT record (hasEDNS) advertised the given size
// (RFC 6891): without an EDNS OPT record in the query, everything
// truncates at the classic 512 octets; with one, EDNS-capable resolvers
// honor the advertised size up to their own buffer. Large amplifiers are
// exactly the EDNS-capable ones — which is why real amplification attacks
// always send EDNS queries.
func (w *World) udpPayloadLimit(u uint32, advertised uint16, hasEDNS bool, t Time) int {
	if !hasEDNS || advertised <= dnswire.MaxUDPSize {
		return dnswire.MaxUDPSize
	}
	p, ok := w.ProfileAt(w.Mask(u), t)
	if !ok {
		return dnswire.MaxUDPSize
	}
	if ampClassOf(p.Identity) != AmpLarge {
		return dnswire.MaxUDPSize
	}
	if advertised > 4096 {
		return 4096
	}
	return int(advertised)
}

// fitUDP applies the one truncation rule of the simulated resolvers, on
// every transport: a response longer than the exchange's payload limit
// is cut in place to its header and question with TC set, inviting the
// client to retry over TCP.
func (w *World) fitUDP(wire []byte, limit int) []byte {
	if len(wire) <= limit {
		return wire
	}
	w.respTruncated.Inc()
	return dnswire.TruncateResponse(wire)
}

// soaOf is the SOA record ANY answers carry for a zone.
func soaOf(qname string) dnswire.SOA {
	return dnswire.SOA{
		MName: "ns1." + qname, RName: "hostmaster." + qname,
		Serial: 2015010100, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 3600,
	}
}

// answerANY builds the resolver's response to an ANY query.
func (w *World) answerANY(x *exchange, p *Profile, qname string, d domains.Domain, listed bool) {
	class := ampClassOf(p.Identity)
	if class == AmpRefusesANY {
		x.begin(qname, dnswire.RCodeRefused)
		return
	}
	addrs, rc := w.legitAddrs(x.addrs[:0], qname, x.cn, d, listed, p.Country)
	if class == AmpLarge {
		rc = dnswire.RCodeNoError
	}
	x.begin(qname, rc)
	for _, a := range addrs {
		w.addA(x, a)
	}
	txt := func(blob string) {
		x.rb.RR(dnswire.ClassIN, answerTTL, dnswire.TXT{Strings: []string{blob}})
	}
	switch class {
	case AmpModerate:
		x.rb.NS(answerTTL, "ns1."+qname)
		x.rb.NS(answerTTL, "ns2."+qname)
		x.rb.RR(dnswire.ClassIN, answerTTL, soaOf(qname))
		// A quarter of the moderates hold more data than fits in 512
		// octets but do not speak EDNS: their UDP answers truncate and
		// clients must retry over TCP — the hardened non-amplifiers.
		if prand.UnitOf(p.Identity, 0xA3C) < 0.25 {
			txt(strings.Repeat("descriptive-policy-text ", 28))
		}
	case AmpLarge:
		// Bulky TXT padding, the classic amplification payload.
		blob := strings.Repeat("v=spf1 include:_spf."+qname+" ", 8)
		for i := 0; i < 4; i++ {
			txt(blob)
		}
		x.rb.NS(answerTTL, "ns1."+qname)
		x.rb.RR(dnswire.ClassIN, answerTTL, soaOf(qname))
	}
}
