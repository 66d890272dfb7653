// Package dnssec implements the response-authenticity machinery the
// paper's discussion section calls for (§5 "DNS Authenticity"): zone
// signing with Ed25519 (RFC 8080), RRset signature verification, and the
// client-side strategies for racing an in-transit injector — accept the
// first response (status quo) versus wait for a correctly signed answer
// and drop unsigned or badly signed ones.
package dnssec

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"goingwild/internal/dnswire"
)

// ZoneKey is a zone's signing key pair.
type ZoneKey struct {
	Zone    string
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
	KeyTag  uint16
}

// NewZoneKey derives a deterministic key for a zone from a seed — the
// reproduction's stand-in for offline key ceremonies.
func NewZoneKey(zone string, seed uint64) *ZoneKey {
	var material [ed25519.SeedSize]byte
	sum := sha256.Sum256(append(binary.BigEndian.AppendUint64(nil, seed), zone...))
	copy(material[:], sum[:])
	priv := ed25519.NewKeyFromSeed(material[:])
	pub := priv.Public().(ed25519.PublicKey)
	return &ZoneKey{
		Zone:    dnswire.CanonicalName(zone),
		Public:  pub,
		private: priv,
		KeyTag:  keyTag(pub),
	}
}

// keyTag derives the RFC 4034 key tag (simplified: a hash fold of the
// public key).
func keyTag(pub ed25519.PublicKey) uint16 {
	sum := sha256.Sum256(pub)
	return binary.BigEndian.Uint16(sum[:2])
}

// DNSKEY renders the zone's public key record.
func (k *ZoneKey) DNSKEY() dnswire.DNSKEY {
	return dnswire.DNSKEY{
		Flags:     257, // KSK
		Protocol:  3,
		Algorithm: dnswire.AlgoEd25519,
		PublicKey: append([]byte(nil), k.Public...),
	}
}

// signedData serializes an RRset canonically for signing: the RRSIG
// header fields followed by each record in wire form — the canonical
// owner name, type, class, the original TTL and the RDATA — sorted. Sign
// and Verify both build it from the RDATA byte strings, so a signature
// is over the bytes a response carries.
func signedData(sig *dnswire.RRSIG, name string, class dnswire.Class, rdatas [][]byte) []byte {
	buf := binary.BigEndian.AppendUint16(nil, uint16(sig.TypeCovered))
	buf = append(buf, sig.Algorithm, sig.Labels)
	buf = binary.BigEndian.AppendUint32(buf, sig.OrigTTL)
	buf = binary.BigEndian.AppendUint32(buf, sig.Expiration)
	buf = binary.BigEndian.AppendUint32(buf, sig.Inception)
	buf = binary.BigEndian.AppendUint16(buf, sig.KeyTag)
	buf = append(buf, dnswire.CanonicalName(sig.SignerName)...)
	buf = append(buf, 0)
	owner, err := dnswire.EncodeNameWire(dnswire.CanonicalName(name))
	if err != nil {
		return buf // an owner that does not encode contributes no records
	}
	wires := make([][]byte, len(rdatas))
	for i, rdata := range rdatas {
		w := append([]byte(nil), owner...)
		w = binary.BigEndian.AppendUint16(w, uint16(sig.TypeCovered))
		w = binary.BigEndian.AppendUint16(w, uint16(class))
		w = binary.BigEndian.AppendUint32(w, sig.OrigTTL)
		w = binary.BigEndian.AppendUint16(w, uint16(len(rdata)))
		wires[i] = append(w, rdata...)
	}
	sort.Slice(wires, func(i, j int) bool { return string(wires[i]) < string(wires[j]) })
	for _, w := range wires {
		buf = append(buf, w...)
	}
	return buf
}

// Sign produces an RRSIG over the RRset of name whose records of type typ
// carry the given RDATA.
func (k *ZoneKey) Sign(name string, class dnswire.Class, ttl uint32, typ dnswire.Type, rdatas [][]byte) dnswire.RRSIG {
	sig := dnswire.RRSIG{
		TypeCovered: typ,
		Algorithm:   dnswire.AlgoEd25519,
		Labels:      uint8(len(dnswire.SplitLabels(name))),
		OrigTTL:     ttl,
		Inception:   1420070400, // Jan 1 2015
		Expiration:  1451606400, // Jan 1 2016
		KeyTag:      k.KeyTag,
		SignerName:  k.Zone,
	}
	data := signedData(&sig, name, class, rdatas)
	sig.Signature = ed25519.Sign(k.private, data)
	return sig
}

// Verify checks an RRSIG over the RRset of name whose records of the
// covered type carry the given RDATA against a public key.
func Verify(pub ed25519.PublicKey, sig *dnswire.RRSIG, name string, class dnswire.Class, rdatas [][]byte) bool {
	if sig.Algorithm != dnswire.AlgoEd25519 || len(sig.Signature) != ed25519.SignatureSize {
		return false
	}
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	data := signedData(sig, name, class, rdatas)
	return ed25519.Verify(pub, data, sig.Signature)
}

// ValidateResponse reports whether the response msg carries a correctly
// signed answer RRset under the given zone key, read from the wire: a
// message View.Validate refuses carries none. Each RRSIG answer is
// checked against the RDATA of the answer records of exactly the type it
// covers, as the RRset of the question name.
func ValidateResponse(pub ed25519.PublicKey, msg []byte) bool {
	v := dnswire.GetView()
	defer dnswire.PutView(v)
	if v.Reset(msg) != nil || v.Validate() != nil {
		return false
	}
	var sigs, rrs []dnswire.Record
	//lint:allow errdrop Validate accepted the message, so every section walks
	_ = v.Records(dnswire.SectionAnswer, func(rr dnswire.Record) {
		if rr.Type == dnswire.TypeRRSIG {
			sigs = append(sigs, rr)
		} else {
			rrs = append(rrs, rr)
		}
	})
	name := string(v.QName())
	for _, s := range sigs {
		d, err := v.RData(s)
		if err != nil {
			continue
		}
		sig := d.(dnswire.RRSIG)
		var covered [][]byte
		for _, rr := range rrs {
			if rr.Type == sig.TypeCovered {
				covered = append(covered, rr.Data)
			}
		}
		if len(covered) > 0 && Verify(pub, &sig, name, dnswire.ClassIN, covered) {
			return true
		}
	}
	return false
}
