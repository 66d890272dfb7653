package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// ErrBadRData reports a malformed RDATA section.
var ErrBadRData = errors.New("dnswire: malformed rdata")

// RData is the typed body of a resource record.
type RData interface {
	// Type returns the record type this body belongs to.
	Type() Type
	// appendTo appends the wire form of the body to buf. cmp is the
	// message-wide Compressor (nil disables compression).
	appendTo(buf []byte, cmp *Compressor) ([]byte, error)
}

// A is an IPv4 address record body.
type A struct{ Addr netip.Addr }

// Type implements RData.
func (A) Type() Type { return TypeA }

func (a A) appendTo(buf []byte, _ *Compressor) ([]byte, error) {
	if !a.Addr.Is4() {
		return buf, fmt.Errorf("%w: A record address %v is not IPv4", ErrBadRData, a.Addr)
	}
	b := a.Addr.As4()
	return append(buf, b[:]...), nil
}

// AAAA is an IPv6 address record body.
type AAAA struct{ Addr netip.Addr }

// Type implements RData.
func (AAAA) Type() Type { return TypeAAAA }

func (a AAAA) appendTo(buf []byte, _ *Compressor) ([]byte, error) {
	if !a.Addr.Is6() || a.Addr.Is4In6() {
		return buf, fmt.Errorf("%w: AAAA record address %v is not IPv6", ErrBadRData, a.Addr)
	}
	b := a.Addr.As16()
	return append(buf, b[:]...), nil
}

// NS is a name server record body.
type NS struct{ Host string }

// Type implements RData.
func (NS) Type() Type { return TypeNS }

func (n NS) appendTo(buf []byte, cmp *Compressor) ([]byte, error) {
	return appendName(buf, n.Host, cmp)
}

// CNAME is a canonical name record body.
type CNAME struct{ Target string }

// Type implements RData.
func (CNAME) Type() Type { return TypeCNAME }

func (c CNAME) appendTo(buf []byte, cmp *Compressor) ([]byte, error) {
	return appendName(buf, c.Target, cmp)
}

// PTR is a pointer record body (rDNS).
type PTR struct{ Target string }

// Type implements RData.
func (PTR) Type() Type { return TypePTR }

func (p PTR) appendTo(buf []byte, cmp *Compressor) ([]byte, error) {
	return appendName(buf, p.Target, cmp)
}

// MX is a mail exchanger record body.
type MX struct {
	Preference uint16
	Host       string
}

// Type implements RData.
func (MX) Type() Type { return TypeMX }

func (m MX) appendTo(buf []byte, cmp *Compressor) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, m.Preference)
	return appendName(buf, m.Host, cmp)
}

// SOA is a start-of-authority record body.
type SOA struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Type implements RData.
func (SOA) Type() Type { return TypeSOA }

func (s SOA) appendTo(buf []byte, cmp *Compressor) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, s.MName, cmp); err != nil {
		return buf, err
	}
	if buf, err = appendName(buf, s.RName, cmp); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint32(buf, s.Serial)
	buf = binary.BigEndian.AppendUint32(buf, s.Refresh)
	buf = binary.BigEndian.AppendUint32(buf, s.Retry)
	buf = binary.BigEndian.AppendUint32(buf, s.Expire)
	buf = binary.BigEndian.AppendUint32(buf, s.Minimum)
	return buf, nil
}

// TXT is a text record body. CHAOS version.bind responses use a TXT record
// in class CH; each string is at most 255 octets on the wire.
type TXT struct{ Strings []string }

// Type implements RData.
func (TXT) Type() Type { return TypeTXT }

func (t TXT) appendTo(buf []byte, _ *Compressor) ([]byte, error) {
	if len(t.Strings) == 0 {
		// An empty TXT is encoded as a single empty character-string.
		return append(buf, 0), nil
	}
	for _, s := range t.Strings {
		for len(s) > 255 {
			buf = append(buf, 255)
			buf = append(buf, s[:255]...)
			s = s[255:]
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}

// OPT is a pseudo-record body (EDNS0, RFC 6891). Only the payload size in
// the class field matters for the scanners; options are carried opaquely.
type OPT struct{ Options []byte }

// Type implements RData.
func (OPT) Type() Type { return TypeOPT }

func (o OPT) appendTo(buf []byte, _ *Compressor) ([]byte, error) {
	return append(buf, o.Options...), nil
}

// RawRData carries the undecoded body of a record type the codec does not
// model. Unknown types are preserved byte-for-byte so that scans tolerate
// exotic responders (§5, "Completeness").
type RawRData struct {
	RType Type
	Data  []byte
}

// Type implements RData.
func (r RawRData) Type() Type { return r.RType }

func (r RawRData) appendTo(buf []byte, _ *Compressor) ([]byte, error) {
	return append(buf, r.Data...), nil
}

// checkRData applies Validate's typed RDATA rule to rr, a record of msg:
// A is 4 octets, AAAA 16, MX ≥ 3, DNSKEY ≥ 4 and RRSIG ≥ 18; TXT strings
// end inside the RDATA; a name inside the body decodes (followed where it
// leads, as RFC 1035 decoders do; only SOA's 20 fixed octets and RRSIG's
// signer must end inside the RDATA). Types the codec does not model are
// not interpreted.
func checkRData(msg []byte, rr Record) error {
	body, off := rr.Data, rr.data
	var err error
	switch rr.Type {
	case TypeA:
		if len(body) != 4 {
			return fmt.Errorf("%w: A rdata length %d", ErrBadRData, len(body))
		}
	case TypeAAAA:
		if len(body) != 16 {
			return fmt.Errorf("%w: AAAA rdata length %d", ErrBadRData, len(body))
		}
	case TypeNS, TypeCNAME, TypePTR:
		_, err = nameEnd(msg, off)
	case TypeMX:
		if len(body) < 3 {
			return fmt.Errorf("%w: MX rdata length %d", ErrBadRData, len(body))
		}
		_, err = nameEnd(msg, off+2)
	case TypeSOA:
		next, err := nameEnd(msg, off)
		if err != nil {
			return err
		}
		if next, err = nameEnd(msg, next); err != nil {
			return err
		}
		if next+20 > off+len(body) {
			return fmt.Errorf("%w: SOA fixed fields truncated", ErrBadRData)
		}
	case TypeTXT:
		for i := 0; i < len(body); {
			n := int(body[i])
			i++
			if i+n > len(body) {
				return fmt.Errorf("%w: TXT string overruns rdata", ErrBadRData)
			}
			i += n
		}
	case TypeDNSKEY:
		if len(body) < 4 {
			return fmt.Errorf("%w: DNSKEY rdata length %d", ErrBadRData, len(body))
		}
	case TypeRRSIG:
		if len(body) < 18 {
			return fmt.Errorf("%w: RRSIG rdata length %d", ErrBadRData, len(body))
		}
		next, err := nameEnd(msg, off+18)
		if err != nil {
			return err
		}
		if next > off+len(body) {
			return fmt.Errorf("%w: RRSIG signer overruns rdata", ErrBadRData)
		}
	}
	return err
}

// rdataOf decodes the typed body of rr, a record of msg that Validate
// accepted: the checks are checkRData's, so none is repeated here.
func rdataOf(msg []byte, rr Record) RData {
	body, off := rr.Data, rr.data
	switch rr.Type {
	case TypeA:
		return A{Addr: netip.AddrFrom4([4]byte(body))}
	case TypeAAAA:
		return AAAA{Addr: netip.AddrFrom16([16]byte(body))}
	case TypeNS:
		host, _ := nameAt(msg, off)
		return NS{Host: host}
	case TypeCNAME:
		target, _ := nameAt(msg, off)
		return CNAME{Target: target}
	case TypePTR:
		target, _ := nameAt(msg, off)
		return PTR{Target: target}
	case TypeMX:
		host, _ := nameAt(msg, off+2)
		return MX{Preference: binary.BigEndian.Uint16(body), Host: host}
	case TypeSOA:
		mname, next := nameAt(msg, off)
		rname, next := nameAt(msg, next)
		f := msg[next:]
		return SOA{
			MName:   mname,
			RName:   rname,
			Serial:  binary.BigEndian.Uint32(f[0:]),
			Refresh: binary.BigEndian.Uint32(f[4:]),
			Retry:   binary.BigEndian.Uint32(f[8:]),
			Expire:  binary.BigEndian.Uint32(f[12:]),
			Minimum: binary.BigEndian.Uint32(f[16:]),
		}
	case TypeTXT:
		var strs []string
		for i := 0; i < len(body); {
			n := int(body[i])
			strs = append(strs, string(body[i+1:i+1+n]))
			i += 1 + n
		}
		return TXT{Strings: strs}
	case TypeOPT:
		return OPT{Options: append([]byte(nil), body...)}
	case TypeDNSKEY:
		return DNSKEY{
			Flags:     binary.BigEndian.Uint16(body),
			Protocol:  body[2],
			Algorithm: body[3],
			PublicKey: append([]byte(nil), body[4:]...),
		}
	case TypeRRSIG:
		signer, next := nameAt(msg, off+18)
		return RRSIG{
			TypeCovered: Type(binary.BigEndian.Uint16(body)),
			Algorithm:   body[2],
			Labels:      body[3],
			OrigTTL:     binary.BigEndian.Uint32(body[4:]),
			Expiration:  binary.BigEndian.Uint32(body[8:]),
			Inception:   binary.BigEndian.Uint32(body[12:]),
			KeyTag:      binary.BigEndian.Uint16(body[16:]),
			SignerName:  signer,
			Signature:   append([]byte(nil), msg[next:off+len(body)]...),
		}
	default:
		return RawRData{RType: rr.Type, Data: append([]byte(nil), body...)}
	}
}
