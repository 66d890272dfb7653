package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
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
	// String renders the body in zone-file style presentation format.
	String() string
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

func (a A) String() string { return a.Addr.String() }

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

func (a AAAA) String() string { return a.Addr.String() }

// NS is a name server record body.
type NS struct{ Host string }

// Type implements RData.
func (NS) Type() Type { return TypeNS }

func (n NS) appendTo(buf []byte, cmp *Compressor) ([]byte, error) {
	return appendName(buf, n.Host, cmp)
}

func (n NS) String() string { return n.Host + "." }

// CNAME is a canonical name record body.
type CNAME struct{ Target string }

// Type implements RData.
func (CNAME) Type() Type { return TypeCNAME }

func (c CNAME) appendTo(buf []byte, cmp *Compressor) ([]byte, error) {
	return appendName(buf, c.Target, cmp)
}

func (c CNAME) String() string { return c.Target + "." }

// PTR is a pointer record body (rDNS).
type PTR struct{ Target string }

// Type implements RData.
func (PTR) Type() Type { return TypePTR }

func (p PTR) appendTo(buf []byte, cmp *Compressor) ([]byte, error) {
	return appendName(buf, p.Target, cmp)
}

func (p PTR) String() string { return p.Target + "." }

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

func (m MX) String() string { return fmt.Sprintf("%d %s.", m.Preference, m.Host) }

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

func (s SOA) String() string {
	return fmt.Sprintf("%s. %s. %d %d %d %d %d",
		s.MName, s.RName, s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
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

func (t TXT) String() string {
	quoted := make([]string, len(t.Strings))
	for i, s := range t.Strings {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(quoted, " ")
}

// OPT is a pseudo-record body (EDNS0, RFC 6891). Only the payload size in
// the class field matters for the scanners; options are carried opaquely.
type OPT struct{ Options []byte }

// Type implements RData.
func (OPT) Type() Type { return TypeOPT }

func (o OPT) appendTo(buf []byte, _ *Compressor) ([]byte, error) {
	return append(buf, o.Options...), nil
}

func (o OPT) String() string { return fmt.Sprintf("OPT %d bytes", len(o.Options)) }

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

func (r RawRData) String() string { return fmt.Sprintf("\\# %d %x", len(r.Data), r.Data) }

// unpackRData decodes the body of a record of the given type from
// msg[off:off+length]. The full message is supplied so compressed names
// inside RDATA resolve.
func unpackRData(msg []byte, off, length int, typ Type) (RData, error) {
	if off+length > len(msg) {
		return nil, ErrTruncatedName
	}
	body := msg[off : off+length]
	switch typ {
	case TypeA:
		if len(body) != 4 {
			return nil, fmt.Errorf("%w: A rdata length %d", ErrBadRData, len(body))
		}
		return A{Addr: netip.AddrFrom4([4]byte(body))}, nil
	case TypeAAAA:
		if len(body) != 16 {
			return nil, fmt.Errorf("%w: AAAA rdata length %d", ErrBadRData, len(body))
		}
		return AAAA{Addr: netip.AddrFrom16([16]byte(body))}, nil
	case TypeNS:
		name, _, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		return NS{Host: name}, nil
	case TypeCNAME:
		name, _, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		return CNAME{Target: name}, nil
	case TypePTR:
		name, _, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		return PTR{Target: name}, nil
	case TypeMX:
		if len(body) < 3 {
			return nil, fmt.Errorf("%w: MX rdata length %d", ErrBadRData, len(body))
		}
		pref := binary.BigEndian.Uint16(body)
		name, _, err := unpackName(msg, off+2)
		if err != nil {
			return nil, err
		}
		return MX{Preference: pref, Host: name}, nil
	case TypeSOA:
		mname, next, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		rname, next, err := unpackName(msg, next)
		if err != nil {
			return nil, err
		}
		if next+20 > off+length {
			return nil, fmt.Errorf("%w: SOA fixed fields truncated", ErrBadRData)
		}
		f := msg[next:]
		return SOA{
			MName:   mname,
			RName:   rname,
			Serial:  binary.BigEndian.Uint32(f[0:]),
			Refresh: binary.BigEndian.Uint32(f[4:]),
			Retry:   binary.BigEndian.Uint32(f[8:]),
			Expire:  binary.BigEndian.Uint32(f[12:]),
			Minimum: binary.BigEndian.Uint32(f[16:]),
		}, nil
	case TypeTXT:
		var strs []string
		for i := 0; i < len(body); {
			n := int(body[i])
			i++
			if i+n > len(body) {
				return nil, fmt.Errorf("%w: TXT string overruns rdata", ErrBadRData)
			}
			strs = append(strs, string(body[i:i+n]))
			i += n
		}
		return TXT{Strings: strs}, nil
	case TypeOPT:
		return OPT{Options: append([]byte(nil), body...)}, nil
	case TypeDNSKEY, TypeRRSIG:
		return unpackDNSSEC(msg, off, length, typ)
	default:
		return RawRData{RType: typ, Data: append([]byte(nil), body...)}, nil
	}
}
