package dnswire

import (
	"errors"
	"strings"
)

// Errors reported by the name codec.
var (
	ErrNameTooLong    = errors.New("dnswire: domain name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("dnswire: empty label inside name")
	ErrBadPointer     = errors.New("dnswire: bad compression pointer")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrTruncatedName  = errors.New("dnswire: truncated name")
	ErrReservedLabel  = errors.New("dnswire: reserved label type")
	ErrShortMessage   = errors.New("dnswire: message too short")
	ErrTooManyRecords = errors.New("dnswire: record count exceeds message size")
)

const (
	maxNameWire  = 255
	maxLabelWire = 63
	// maxPointerHops bounds compression pointer chains; a legitimate
	// message cannot need more hops than it has labels.
	maxPointerHops = 128
)

// CanonicalName lowercases a domain name and strips a single trailing dot,
// producing the form used as map keys throughout the pipeline. The empty
// string denotes the DNS root. Only ASCII letters fold (RFC 4343): every
// other octet, UTF-8 or not, is part of the name as it stands.
func CanonicalName(name string) string {
	name = strings.TrimSuffix(name, ".")
	// Fast path: already lower case.
	i := 0
	for i < len(name) && !('A' <= name[i] && name[i] <= 'Z') {
		i++
	}
	if i == len(name) {
		return name
	}
	var sb strings.Builder
	sb.Grow(len(name))
	sb.WriteString(name[:i])
	for ; i < len(name); i++ {
		sb.WriteByte(lowerASCII(name[i]))
	}
	return sb.String()
}

// AppendCanonicalName is CanonicalName over a name held as bytes, as a
// View holds it: the canonical form is appended to dst, so a caller with
// reusable storage canonicalises without allocating.
func AppendCanonicalName(dst, name []byte) []byte {
	if n := len(name); n > 0 && name[n-1] == '.' {
		name = name[:n-1]
	}
	start := len(dst)
	dst = append(dst, name...)
	for i := start; i < len(dst); i++ {
		dst[i] = lowerASCII(dst[i])
	}
	return dst
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// equalFoldASCII compares two equal-length names under DNS case folding.
//
//lint:hotpath per-label compression lookup on the response pack path
func equalFoldASCII(a, b string) bool {
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] && lowerASCII(a[i]) != lowerASCII(b[i]) {
			return false
		}
	}
	return true
}

// SplitLabels splits a canonical name into its labels. The root returns nil.
func SplitLabels(name string) []string {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// Compressor records where the suffixes of the names written so far start
// in the message being packed, so a later name can end in a pointer to an
// earlier one (RFC 1035 §4.1.4). Entries hold substrings of the names
// handed to the packer — nothing is joined, lowered or hashed — and are
// matched by a length check plus an ASCII case-folding compare; a message
// carries a handful of names, so the scan beats a map and allocates
// nothing once the slice has grown. The zero value is ready to use, and
// one Compressor serves any number of PackInto calls.
type Compressor struct {
	entries []compEntry
	// base is where the message being packed starts in its buffer.
	// Pointers are offsets from the message start (RFC 1035 §4.1.4), so
	// a message appended behind others in one arena (ResponseBuilder)
	// compresses exactly as it would at offset 0.
	base int
}

// reset empties the Compressor for a message starting at buf[base].
func (c *Compressor) reset(base int) {
	c.entries = c.entries[:0]
	c.base = base
}

type compEntry struct {
	suffix string // no trailing dot; aliases the caller's name
	off    int    // always < 0x4000, the reach of a 14-bit pointer
}

// find returns the offset of the first suffix registered under a name
// equal to suffix, or -1.
//
//lint:hotpath per-label compression lookup on the response pack path
func (c *Compressor) find(suffix string) int {
	for i := range c.entries {
		e := &c.entries[i]
		if len(e.suffix) == len(suffix) && equalFoldASCII(e.suffix, suffix) {
			return e.off
		}
	}
	return -1
}

// cutLabel splits the first label off a name that has no trailing dot.
//
//lint:hotpath per-label walk on the query build and response pack paths
func cutLabel(name string) (label, rest string, more bool) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:], true
	}
	return name, "", false
}

// appendName appends the wire encoding of name to buf, using cmp to emit
// and record compression pointers; pass nil to disable compression
// (required inside RDATA of types that predate compression-awareness).
// The first suffix registered under a name keeps its offset.
func appendName(buf []byte, name string, cmp *Compressor) ([]byte, error) {
	return appendLabels(buf, strings.TrimSuffix(name, "."), cmp)
}

// appendLabels is appendName for a name already stripped of its one
// optional trailing dot.
func appendLabels(buf []byte, name string, cmp *Compressor) ([]byte, error) {
	if name == "" {
		return append(buf, 0), nil
	}
	if len(name)+2 > maxNameWire {
		return buf, ErrNameTooLong
	}
	for {
		label, rest, more := cutLabel(name)
		if label == "" {
			return buf, ErrEmptyLabel
		}
		if len(label) > maxLabelWire {
			return buf, ErrLabelTooLong
		}
		if cmp != nil {
			if off := cmp.find(name); off >= 0 {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			if off := len(buf) - cmp.base; off < 0x4000 {
				cmp.entries = append(cmp.entries, compEntry{name, off})
			}
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		if !more {
			return append(buf, 0), nil
		}
		name = rest
	}
}

// nameEnd checks the name at off in msg under appendNameBytes's rules,
// decoding it into stack scratch, and returns the offset after its direct
// encoding: Validate's name rule, with no allocation.
func nameEnd(msg []byte, off int) (int, error) {
	var scratch [maxNameWire]byte
	_, end, err := appendNameBytes(scratch[:0], msg, off)
	return end, err
}

// nameAt decodes the name at off of a message Validate accepted (dotted,
// original case, no trailing dot) and returns the offset after its direct
// encoding. The buffer never reallocates because appendNameBytes enforces
// maxNameWire, so the name costs one allocation.
func nameAt(msg []byte, off int) (string, int) {
	var scratch [maxNameWire]byte
	//lint:allow errdrop Validate accepted every name of the message
	b, end, _ := appendNameBytes(scratch[:0], msg, off)
	return string(b), end
}

// EqualNamesFold reports whether two domain names are equal under DNS case
// folding (ASCII case-insensitive label comparison), tolerating an optional
// trailing dot on either side.
func EqualNamesFold(a, b string) bool {
	a, b = strings.TrimSuffix(a, "."), strings.TrimSuffix(b, ".")
	return len(a) == len(b) && equalFoldASCII(a, b)
}
