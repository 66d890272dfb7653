package wildnet

import (
	"crypto/ed25519"
	"encoding/binary"
	"sync"

	"goingwild/internal/dnssec"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/prand"
)

// DNSSEC deployment in the world (§5): as of the study period, global
// coverage was marginal (<0.6% of .net domains), so only a handful of
// scan-list zones are signed — including one the Chinese injector reacts
// to, which is exactly the configuration the paper's discussion section
// reasons about.
var signedZoneList = []string{
	domains.GroundTruth,
	"wikileaks.org", // signed AND injected: the §5 race scenario
	"paypal.com",
	"wikipedia.org",
	"accounts.google.com",
}

// dnssecState lazily holds zone keys and signature caches.
type dnssecState struct {
	mu   sync.Mutex
	once sync.Once
	keys map[string]*dnssec.ZoneKey
	// sigs caches RRSIGs by zone + "|" + the packed answer addresses,
	// boxed once so the responder appends a hit without allocating.
	sigs map[string]dnswire.RData
}

func (w *World) dnssecStateOf() *dnssecState {
	w.dnssec.once.Do(func() {
		w.dnssec.keys = map[string]*dnssec.ZoneKey{}
		w.dnssec.sigs = map[string]dnswire.RData{}
	})
	return &w.dnssec
}

// SignedZone reports whether a name belongs to a DNSSEC-signed zone, and
// returns the zone apex.
func (w *World) SignedZone(name string) (string, bool) {
	cn := dnswire.CanonicalName(name)
	_, listed := domains.ByName(cn)
	return w.signedZone(cn, listed)
}

// signedZone is SignedZone for a caller that has already canonicalised
// the name and looked it up in the scan list, as the DNS handler has.
func (w *World) signedZone(cn string, listed bool) (string, bool) {
	for _, z := range signedZoneList {
		if cn == z {
			return z, true
		}
	}
	// A ~1% tail of other zones is signed, seeded per world.
	if listed && prand.UnitOf(w.cfg.Seed, 0xD5EC, prand.FNV(cn)) < 0.01 {
		return cn, true
	}
	return "", false
}

// ZoneKeyOf returns (building if necessary) the signing key of a zone.
func (w *World) ZoneKeyOf(zone string) *dnssec.ZoneKey {
	st := w.dnssecStateOf()
	st.mu.Lock()
	defer st.mu.Unlock()
	if k, ok := st.keys[zone]; ok {
		return k
	}
	k := dnssec.NewZoneKey(zone, w.cfg.Seed)
	st.keys[zone] = k
	return k
}

// ZonePublicKey exposes the public key the client-side validator fetches
// via a DNSKEY lookup.
// Test support: core's tests validate signed answers against it.
func (w *World) ZonePublicKey(zone string) (ed25519.PublicKey, bool) {
	if _, signed := w.SignedZone(zone); !signed {
		return nil, false
	}
	return w.ZoneKeyOf(dnswire.CanonicalName(zone)).Public, true
}

// signAnswer appends an RRSIG over the answer RRset addrs, just added to
// the response under construction, when the queried zone is signed.
// Signatures are cached per (zone, answer set); the key is built on the
// stack, so a hit allocates nothing.
func (w *World) signAnswer(x *exchange, qname string, listed bool, addrs []uint32) {
	zone, signed := w.signedZone(qname, listed)
	if !signed || len(addrs) == 0 {
		return
	}
	var kb [96]byte
	key := append(append(kb[:0], zone...), '|')
	for _, a := range addrs {
		key = binary.BigEndian.AppendUint32(key, w.answerAddr(a))
	}
	st := w.dnssecStateOf()
	st.mu.Lock()
	sig, ok := st.sigs[string(key)]
	st.mu.Unlock()
	if !ok {
		rrs := make([]dnswire.ResourceRecord, len(addrs))
		for i, a := range addrs {
			rrs[i].Data = dnswire.A{Addr: lfsr.U32ToAddr(w.answerAddr(a))}
		}
		sig = w.ZoneKeyOf(zone).Sign(qname, dnswire.ClassIN, answerTTL, rrs)
		st.mu.Lock()
		st.sigs[string(key)] = sig
		st.mu.Unlock()
	}
	x.rb.RR(dnswire.ClassIN, answerTTL, sig)
}

// answerDNSKEY serves the zone's public key record.
func (w *World) answerDNSKEY(x *exchange, qname string, listed bool) {
	x.begin(qname, dnswire.RCodeNoError)
	if zone, signed := w.signedZone(qname, listed); signed {
		x.rb.RR(dnswire.ClassIN, 3600, w.ZoneKeyOf(zone).DNSKEY())
	}
}
