package dnswire

import (
	"encoding/binary"
	"sync"
)

// This file is the zero-allocation decode path of the scan hot loop. A
// weekly sweep parses tens of millions of responses; building a full
// Message (header struct, question slice, name strings, boxed RData) for
// each one is what used to dominate the receiver profile. A View decodes
// the header and first question once, into storage it owns and reuses,
// and walks the record sections lazily on demand — no per-packet heap
// traffic at steady state when the View itself is pooled (GetView/PutView).

// View is a reusable, allocation-free decoder over one wire-format DNS
// message. Reset validates the header and the question section eagerly
// (the fields every receiver needs) and leaves the record sections to the
// walking accessors. A View must not be used concurrently, and the slice
// returned by QName is only valid until the next Reset.
type View struct {
	msg    []byte
	id     uint16
	flags  uint16
	counts [4]int
	qtype  Type
	qclass Class
	// name holds the first question's decoded name; the backing array is
	// reused across Resets.
	name   []byte
	ansOff int
}

// Reset points the view at msg, parsing the header and question section.
// The counts defense mirrors Unpack: section counts that cannot fit the
// message are rejected before any walking happens.
func (v *View) Reset(msg []byte) error {
	v.msg = msg
	v.name = v.name[:0]
	v.ansOff = 0
	if len(msg) < 12 {
		return ErrShortMessage
	}
	v.id = binary.BigEndian.Uint16(msg[0:])
	v.flags = binary.BigEndian.Uint16(msg[2:])
	for i := range v.counts {
		v.counts[i] = int(binary.BigEndian.Uint16(msg[4+2*i:]))
	}
	qd, an, ns, ar := v.counts[0], v.counts[1], v.counts[2], v.counts[3]
	if qd*5+an*11+ns*11+ar*11 > len(msg)-12 {
		return ErrTooManyRecords
	}
	off := 12
	var err error
	for i := 0; i < qd; i++ {
		if i == 0 {
			v.name, off, err = appendNameBytes(v.name[:0], msg, off)
		} else {
			off, err = skipName(msg, off)
		}
		if err != nil {
			return err
		}
		if off+4 > len(msg) {
			return ErrShortMessage
		}
		if i == 0 {
			v.qtype = Type(binary.BigEndian.Uint16(msg[off:]))
			v.qclass = Class(binary.BigEndian.Uint16(msg[off+2:]))
		}
		off += 4
	}
	v.ansOff = off
	return nil
}

// ID returns the transaction ID.
//
//lint:hotpath pooled-view accessor on the receive path
func (v *View) ID() uint16 { return v.id }

// QR reports the response flag.
//
//lint:hotpath pooled-view accessor on the receive path
func (v *View) QR() bool { return v.flags&flagQR != 0 }

// RD reports the recursion-desired flag, which only cache snooping
// clears.
//
//lint:hotpath pooled-view accessor on the simulated resolver's query path
func (v *View) RD() bool { return v.flags&flagRD != 0 }

// TC reports the truncation flag.
//
//lint:hotpath pooled-view accessor on the receive path
func (v *View) TC() bool { return v.flags&flagTC != 0 }

// RCode returns the response code.
//
//lint:hotpath pooled-view accessor on the receive path
func (v *View) RCode() RCode { return RCode(v.flags & 0xF) }

// QDCount returns the question-section count.
//
//lint:hotpath pooled-view accessor on the receive path
func (v *View) QDCount() int { return v.counts[0] }

// AnswerCount returns the answer-section count.
//
//lint:hotpath pooled-view accessor on the receive path
func (v *View) AnswerCount() int { return v.counts[1] }

// QName returns the first question's name (dotted, original case, no
// trailing dot). The slice is owned by the view and valid until Reset.
//
//lint:hotpath pooled-view accessor on the receive path
func (v *View) QName() []byte { return v.name }

// QNameIs reports whether the first question's name is name under DNS
// case folding (ASCII letters only), ignoring name's one optional
// trailing dot.
//
//lint:hotpath per-response round check on the receive path
func (v *View) QNameIs(name string) bool {
	if n := len(name); n > 0 && name[n-1] == '.' {
		name = name[:n-1]
	}
	if len(v.name) != len(name) {
		return false
	}
	for i, c := range v.name {
		if c != name[i] && lowerASCII(c) != lowerASCII(name[i]) {
			return false
		}
	}
	return true
}

// QType returns the first question's type.
//
//lint:hotpath pooled-view accessor on the receive path
func (v *View) QType() Type { return v.qtype }

// QClass returns the first question's class.
//
//lint:hotpath pooled-view accessor on the receive path
func (v *View) QClass() Class { return v.qclass }

// walk visits count records starting at off, calling fn with each record's
// fixed fields and RDATA window. It returns the offset after the last
// record. A nil fn skips the records (used to seek past a section).
func (v *View) walk(off, count int, fn func(typ Type, class Class, ttl uint32, rdOff, rdLen int)) (int, error) {
	msg := v.msg
	var err error
	for i := 0; i < count; i++ {
		off, err = skipName(msg, off)
		if err != nil {
			return off, err
		}
		if off+10 > len(msg) {
			return off, ErrShortMessage
		}
		typ := Type(binary.BigEndian.Uint16(msg[off:]))
		class := Class(binary.BigEndian.Uint16(msg[off+2:]))
		ttl := binary.BigEndian.Uint32(msg[off+4:])
		rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
		off += 10
		if off+rdlen > len(msg) {
			return off, ErrShortMessage
		}
		if fn != nil {
			fn(typ, class, ttl, off, rdlen)
		}
		off += rdlen
	}
	return off, nil
}

// EDNSPayloadSize walks the three record sections to their end and
// returns the UDP payload size the first OPT record of the additional
// section advertises in its CLASS field (RFC 6891) — what
// Message.EDNSPayloadSize reads off a full unpack. err reports a section
// that does not walk: an owner name or an RDLENGTH running past the
// message. RDATA is not interpreted, so a record Unpack would reject for
// its body alone still walks.
func (v *View) EDNSPayloadSize() (size uint16, ok bool, err error) {
	if v.counts[1]|v.counts[2]|v.counts[3] == 0 {
		return 0, false, nil // the shape of every scan probe
	}
	off, err := v.walk(v.ansOff, v.counts[1]+v.counts[2], nil)
	if err != nil {
		return 0, false, err
	}
	_, err = v.walk(off, v.counts[3], func(typ Type, class Class, _ uint32, _, _ int) {
		if typ == TypeOPT && !ok {
			size, ok = uint16(class), true
		}
	})
	return size, ok, err
}

// HasAnswerA reports whether the answer section carries at least one A
// record — the sweep receiver's "Answered" bit. The class is deliberately
// not checked, mirroring Message.AnswerAddrs. Malformed record sections
// read as unanswered; the header and question already validated.
func (v *View) HasAnswerA() bool {
	found := false
	//lint:allow errdrop malformed answer sections read as unanswered by design
	_, _ = v.walk(v.ansOff, v.counts[1], func(typ Type, _ Class, _ uint32, _, rdLen int) {
		if typ == TypeA && rdLen == 4 {
			found = true
		}
	})
	return found
}

// AppendAnswerA appends the IPv4 addresses of all A answer records to
// dst (big-endian uint32, the pipeline's address form) and returns the
// extended slice. With no A answers and a nil dst it allocates nothing.
func (v *View) AppendAnswerA(dst []uint32) []uint32 {
	//lint:allow errdrop malformed answer sections contribute no addresses by design
	_, _ = v.walk(v.ansOff, v.counts[1], func(typ Type, _ Class, _ uint32, rdOff, rdLen int) {
		if typ == TypeA && rdLen == 4 {
			dst = append(dst, binary.BigEndian.Uint32(v.msg[rdOff:]))
		}
	})
	return dst
}

// FirstAnswerNS returns the TTL of the first NS answer record, if any —
// what the cache-snooping probe reads off a resolver's cache view.
func (v *View) FirstAnswerNS() (ttl uint32, ok bool) {
	//lint:allow errdrop malformed answer sections read as uncached by design
	_, _ = v.walk(v.ansOff, v.counts[1], func(typ Type, _ Class, t uint32, _, _ int) {
		if typ == TypeNS && !ok {
			ttl, ok = t, true
		}
	})
	return ttl, ok
}

// HasAuthorityNS reports whether the authority section carries an NS
// record (the NS-only referral shape of §3.4's no-answer responses).
func (v *View) HasAuthorityNS() bool {
	off, err := v.walk(v.ansOff, v.counts[1], nil)
	if err != nil {
		return false
	}
	found := false
	//lint:allow errdrop malformed authority sections read as empty by design
	_, _ = v.walk(off, v.counts[2], func(typ Type, _ Class, _ uint32, _, _ int) {
		if typ == TypeNS {
			found = true
		}
	})
	return found
}

// AppendAnswerTXT appends the concatenated character-strings of every TXT
// answer record to dst, matching their strings joined over a full unpack. CHAOS
// version scans use it to read version.bind payloads without a Message.
func (v *View) AppendAnswerTXT(dst []byte) []byte {
	//lint:allow errdrop malformed answer sections contribute no text by design
	_, _ = v.walk(v.ansOff, v.counts[1], func(typ Type, _ Class, _ uint32, rdOff, rdLen int) {
		if typ != TypeTXT {
			return
		}
		for p := rdOff; p < rdOff+rdLen; {
			n := int(v.msg[p])
			p++
			if p+n > rdOff+rdLen {
				return // overrunning character-string: ignore the tail
			}
			dst = append(dst, v.msg[p:p+n]...)
			p += n
		}
	})
	return dst
}

// skipName advances past a wire-format name without decoding it. A
// compression pointer ends the name's direct encoding immediately.
//
//lint:hotpath per-response decode; one allocation here is one per packet
func skipName(msg []byte, off int) (int, error) {
	for {
		if off >= len(msg) {
			return 0, ErrTruncatedName
		}
		b := msg[off]
		switch {
		case b == 0:
			return off + 1, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, ErrTruncatedName
			}
			return off + 2, nil
		case b&0xC0 != 0:
			return 0, ErrReservedLabel
		default:
			off += 1 + int(b)
		}
	}
}

// appendNameBytes is unpackName writing into a caller-owned byte slice
// instead of a strings.Builder, so a pooled View re-decodes names with no
// allocation at steady state. It returns the extended slice and the offset
// after the name's direct encoding.
func appendNameBytes(dst []byte, msg []byte, off int) ([]byte, int, error) {
	start := len(dst)
	ptrSeen := 0
	end := -1
	for {
		if off >= len(msg) {
			return dst[:start], 0, ErrTruncatedName
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			return dst, end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return dst[:start], 0, ErrTruncatedName
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if ptr >= off {
				return dst[:start], 0, ErrBadPointer
			}
			ptrSeen++
			if ptrSeen > maxPointerHops {
				return dst[:start], 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return dst[:start], 0, ErrReservedLabel
		default:
			n := int(b)
			if off+1+n > len(msg) {
				return dst[:start], 0, ErrTruncatedName
			}
			if len(dst) > start {
				dst = append(dst, '.')
			}
			if len(dst)-start+n > maxNameWire {
				return dst[:start], 0, ErrNameTooLong
			}
			dst = append(dst, msg[off+1:off+1+n]...)
			off += 1 + n
		}
	}
}

// DecodeTargetQNameU32 recovers the probed target from a scan query name
// of the form prefix.hex-ip.base, as DecodeTargetQName does, but over the
// raw name bytes of a View and without allocating. base must be canonical
// (lower case, no trailing dot); the name's case is folded during the
// comparison.
//
//lint:hotpath per-response decode; one allocation here is one per packet
func DecodeTargetQNameU32(name []byte, base string) (uint32, bool) {
	nb := len(base)
	if nb == 0 || len(name) < nb+11 {
		// Shortest valid form is p.xxxxxxxx.base: 1+1+8+1 extra octets.
		return 0, false
	}
	sufStart := len(name) - nb
	if name[sufStart-1] != '.' {
		return 0, false
	}
	for i := 0; i < nb; i++ {
		c := name[sufStart+i]
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		if c != base[i] {
			return 0, false
		}
	}
	hexEnd := sufStart - 1
	hexStart := hexEnd - 8
	if name[hexStart-1] != '.' {
		return 0, false
	}
	var u uint32
	for i := 0; i < 8; i++ {
		d, ok := unhex(name[hexStart+i])
		if !ok {
			return 0, false
		}
		u = u<<4 | uint32(d)
	}
	return u, true
}

// Decode0x20Bytes recovers up to n bits from the letter casing of a raw
// name, mirroring Decode0x20 without the string conversion.
//
//lint:hotpath per-response decode; one allocation here is one per packet
func Decode0x20Bytes(name []byte, n int) (uint32, int) {
	var bits uint32
	bit := 0
	for i := 0; i < len(name) && bit < n; i++ {
		c := name[i]
		if !isLetter(c) {
			continue
		}
		if c&0x20 == 0 { // upper case
			bits |= 1 << uint(bit)
		}
		bit++
	}
	return bits, bit
}

// viewPool recycles Views across receiver callbacks, which may run
// concurrently on different sender goroutines.
var viewPool = sync.Pool{New: func() any { return new(View) }}

// GetView returns a pooled View. Pair with PutView.
func GetView() *View { return viewPool.Get().(*View) }

// PutView returns a view to the pool. The caller must be done with every
// slice obtained from it (QName aliases pooled storage).
func PutView(v *View) {
	v.msg = nil
	viewPool.Put(v)
}
