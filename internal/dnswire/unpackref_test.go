package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// unpackRef is Unpack as it stood before View.Validate carried the
// acceptance rule: one structural loop that decoded the tree as it
// checked it. It is kept as the reference TestValidateVerdicts and
// FuzzValidate hold Validate's verdict and Unpack's tree to.
func unpackRef(msg []byte) (*Message, error) {
	m := new(Message)
	if err := unpackIntoRef(msg, m); err != nil {
		return nil, err
	}
	return m, nil
}

func unpackIntoRef(msg []byte, m *Message) error {
	if len(msg) < 12 {
		return ErrShortMessage
	}
	flags := binary.BigEndian.Uint16(msg[2:])
	m.Header = Header{
		ID:     binary.BigEndian.Uint16(msg[0:]),
		QR:     flags&flagQR != 0,
		Opcode: Opcode(flags >> 11 & 0xF),
		AA:     flags&flagAA != 0,
		TC:     flags&flagTC != 0,
		RD:     flags&flagRD != 0,
		RA:     flags&flagRA != 0,
		RCode:  RCode(flags & 0xF),
	}
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))
	// Each question needs ≥5 bytes, each record ≥11; reject counts that
	// cannot fit, a cheap defense against malicious count inflation.
	if qd*5+an*11+ns*11+ar*11 > len(msg)-12 {
		return ErrTooManyRecords
	}
	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = refName(msg, off)
		if err != nil {
			return err
		}
		if off+4 > len(msg) {
			return ErrShortMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	unpackSection := func(rrs []ResourceRecord, n int) ([]ResourceRecord, error) {
		for i := 0; i < n; i++ {
			var rr ResourceRecord
			rr.Name, off, err = refName(msg, off)
			if err != nil {
				return rrs, err
			}
			if off+10 > len(msg) {
				return rrs, ErrShortMessage
			}
			typ := Type(binary.BigEndian.Uint16(msg[off:]))
			rr.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
			rr.TTL = binary.BigEndian.Uint32(msg[off+4:])
			rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
			off += 10
			if off+rdlen > len(msg) {
				return rrs, ErrShortMessage
			}
			rr.Data, err = refRData(msg, off, rdlen, typ)
			if err != nil {
				return rrs, err
			}
			off += rdlen
			rrs = append(rrs, rr)
		}
		return rrs, nil
	}
	if m.Answers, err = unpackSection(m.Answers, an); err != nil {
		return err
	}
	if m.Authority, err = unpackSection(m.Authority, ns); err != nil {
		return err
	}
	if m.Additional, err = unpackSection(m.Additional, ar); err != nil {
		return err
	}
	return nil
}

func refRData(msg []byte, off, length int, typ Type) (RData, error) {
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
		name, _, err := refName(msg, off)
		if err != nil {
			return nil, err
		}
		return NS{Host: name}, nil
	case TypeCNAME:
		name, _, err := refName(msg, off)
		if err != nil {
			return nil, err
		}
		return CNAME{Target: name}, nil
	case TypePTR:
		name, _, err := refName(msg, off)
		if err != nil {
			return nil, err
		}
		return PTR{Target: name}, nil
	case TypeMX:
		if len(body) < 3 {
			return nil, fmt.Errorf("%w: MX rdata length %d", ErrBadRData, len(body))
		}
		pref := binary.BigEndian.Uint16(body)
		name, _, err := refName(msg, off+2)
		if err != nil {
			return nil, err
		}
		return MX{Preference: pref, Host: name}, nil
	case TypeSOA:
		mname, next, err := refName(msg, off)
		if err != nil {
			return nil, err
		}
		rname, next, err := refName(msg, next)
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
		return refDNSSEC(msg, off, length, typ)
	default:
		return RawRData{RType: typ, Data: append([]byte(nil), body...)}, nil
	}
}

func refDNSSEC(msg []byte, off, length int, typ Type) (RData, error) {
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
		signer, next, err := refName(msg, off+18)
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

func refName(msg []byte, off int) (string, int, error) {
	// Decode into a stack buffer and convert once: one allocation per
	// name instead of one per strings.Builder growth. The buffer never
	// reallocates because appendNameBytes enforces maxNameWire.
	var scratch [maxNameWire]byte
	b, end, err := appendNameBytes(scratch[:0], msg, off)
	if err != nil {
		return "", 0, err
	}
	return string(b), end, nil
}
