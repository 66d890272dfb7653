package dnswire

import (
	"encoding/binary"
	"fmt"
)

// DNSSEC record types (RFC 4034), used by the §5 response-authenticity
// experiment: can a validating client defeat an in-transit injector that
// races the legitimate answer?
const (
	TypeRRSIG  Type = 46
	TypeDNSKEY Type = 48
)

// AlgoEd25519 is the Ed25519 DNSSEC algorithm number (RFC 8080).
const AlgoEd25519 = 15

// DNSKEY is a zone's public key record.
type DNSKEY struct {
	Flags     uint16 // 256 = ZSK, 257 = KSK
	Protocol  uint8  // always 3
	Algorithm uint8
	PublicKey []byte
}

// Type implements RData.
func (DNSKEY) Type() Type { return TypeDNSKEY }

func (k DNSKEY) appendTo(buf []byte, _ *Compressor) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, k.Flags)
	buf = append(buf, k.Protocol, k.Algorithm)
	return append(buf, k.PublicKey...), nil
}

func (k DNSKEY) String() string {
	return fmt.Sprintf("%d %d %d %x", k.Flags, k.Protocol, k.Algorithm, k.PublicKey)
}

// RRSIG is a signature over an RRset (RFC 4034 §3 layout; names inside
// RDATA are never compressed).
type RRSIG struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OrigTTL     uint32
	Expiration  uint32
	Inception   uint32
	KeyTag      uint16
	SignerName  string
	Signature   []byte
}

// Type implements RData.
func (RRSIG) Type() Type { return TypeRRSIG }

func (s RRSIG) appendTo(buf []byte, _ *Compressor) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, uint16(s.TypeCovered))
	buf = append(buf, s.Algorithm, s.Labels)
	buf = binary.BigEndian.AppendUint32(buf, s.OrigTTL)
	buf = binary.BigEndian.AppendUint32(buf, s.Expiration)
	buf = binary.BigEndian.AppendUint32(buf, s.Inception)
	buf = binary.BigEndian.AppendUint16(buf, s.KeyTag)
	var err error
	if buf, err = appendName(buf, s.SignerName, nil); err != nil {
		return buf, err
	}
	return append(buf, s.Signature...), nil
}

func (s RRSIG) String() string {
	return fmt.Sprintf("%s %d %d %d %s. %x",
		s.TypeCovered, s.Algorithm, s.Labels, s.OrigTTL, s.SignerName, s.Signature)
}

// unpackDNSSEC decodes the DNSSEC rdata bodies; wired into unpackRData.
func unpackDNSSEC(msg []byte, off, length int, typ Type) (RData, error) {
	body := msg[off : off+length]
	switch typ {
	case TypeDNSKEY:
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: DNSKEY rdata length %d", ErrBadRData, len(body))
		}
		return DNSKEY{
			Flags:     binary.BigEndian.Uint16(body),
			Protocol:  body[2],
			Algorithm: body[3],
			PublicKey: append([]byte(nil), body[4:]...),
		}, nil
	case TypeRRSIG:
		if len(body) < 18 {
			return nil, fmt.Errorf("%w: RRSIG rdata length %d", ErrBadRData, len(body))
		}
		signer, next, err := unpackName(msg, off+18)
		if err != nil {
			return nil, err
		}
		if next > off+length {
			return nil, fmt.Errorf("%w: RRSIG signer overruns rdata", ErrBadRData)
		}
		return RRSIG{
			TypeCovered: Type(binary.BigEndian.Uint16(body)),
			Algorithm:   body[2],
			Labels:      body[3],
			OrigTTL:     binary.BigEndian.Uint32(body[4:]),
			Expiration:  binary.BigEndian.Uint32(body[8:]),
			Inception:   binary.BigEndian.Uint32(body[12:]),
			KeyTag:      binary.BigEndian.Uint16(body[16:]),
			SignerName:  signer,
			Signature:   append([]byte(nil), msg[next:off+length]...),
		}, nil
	default:
		return RawRData{RType: typ, Data: append([]byte(nil), body...)}, nil
	}
}
