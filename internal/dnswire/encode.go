package dnswire

import (
	"errors"
	"net/netip"
	"strings"
)

// This file implements the two request-encoding schemes of the paper.
//
// Internet-wide scans (§2.2) embed the hex-formatted target IP address in
// the queried name itself — prefix.hex-ip.domain — so the response
// identifies which host the request was sent to even when the reply comes
// back from a different source address (multi-homed hosts, DNS proxies).
//
// Domain scans (§3.3) query a fixed domain set, so the target cannot go in
// the name. Instead each previously discovered resolver gets a compact
// identifier of ⌈log2(#resolvers)⌉ ≤ 25 bits: 16 bits ride in the DNS
// transaction ID, 9 bits select one of 2^9 UDP source ports, and — because
// some resolvers rewrite the destination port of the response — the same
// 9 bits are encoded redundantly in the query name via 0x20 mixed-case
// encoding (Dagon et al.).

// ErrBadTargetQName reports a name that does not follow the
// prefix.hex-ip.domain scan encoding.
var ErrBadTargetQName = errors.New("dnswire: name is not a target-encoded scan qname")

// EncodeTargetQName builds the scan query name prefix.hex-ip.base for the
// given target. The prefix randomizes caching; base is the scan domain the
// measurement team is authoritative for. This sits on the scan hot path,
// so it avoids fmt.
func EncodeTargetQName(prefix string, target netip.Addr, base string) string {
	b := target.As4()
	cb := CanonicalName(base)
	out := make([]byte, 0, len(prefix)+10+len(cb))
	out = append(out, prefix...)
	out = append(out, '.')
	const hexdigits = "0123456789abcdef"
	for _, o := range b {
		out = append(out, hexdigits[o>>4], hexdigits[o&0xF])
	}
	out = append(out, '.')
	out = append(out, cb...)
	return string(out)
}

// DecodeTargetQName recovers the target address from a scan query name of
// the form prefix.hex-ip.base. base must match (case-insensitively) or the
// name is rejected, and so is a name with nothing before the hex-ip label.
// It is the string form of DecodeTargetQNameU32, which the receivers and
// the DNS handler decode with.
// Test support: wildnet's tests hold the handler's scan-base answer to it.
func DecodeTargetQName(name, base string) (netip.Addr, error) {
	cn := CanonicalName(name)
	cb := CanonicalName(base)
	if !strings.HasSuffix(cn, "."+cb) {
		return netip.Addr{}, ErrBadTargetQName
	}
	rest := strings.TrimSuffix(cn, "."+cb)
	labels := strings.Split(rest, ".")
	if len(labels) < 2 {
		return netip.Addr{}, ErrBadTargetQName
	}
	hexip := labels[len(labels)-1]
	if len(hexip) != 8 || len(rest) == len(hexip)+1 {
		// The prefix may spell anything, dots included, but not nothing.
		return netip.Addr{}, ErrBadTargetQName
	}
	var b [4]byte
	for i := 0; i < 4; i++ {
		hi, ok1 := unhex(hexip[2*i])
		lo, ok2 := unhex(hexip[2*i+1])
		if !ok1 || !ok2 {
			return netip.Addr{}, ErrBadTargetQName
		}
		b[i] = hi<<4 | lo
	}
	return netip.AddrFrom4(b), nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// ProbeIDBits is the identifier width used by domain scans. The paper
// derives 25 from ⌈log2(20,000,000)⌉; the split is fixed at 16 transaction
// ID bits plus 9 source-port bits.
const (
	ProbeIDBits   = 25
	probePortBits = 9
	// ProbePortCount is the number of distinct UDP source ports a domain
	// scan binds (2^9).
	ProbePortCount = 1 << probePortBits
	// MaxProbeID is the largest encodable resolver identifier.
	MaxProbeID = 1<<ProbeIDBits - 1
)

// ProbeID is a ≤25-bit resolver identifier carried inside a scan request.
type ProbeID uint32

// SplitProbeID decomposes id into the 16-bit transaction ID and the 9-bit
// source-port index.
func SplitProbeID(id ProbeID) (txid uint16, portIndex uint16) {
	return uint16(id & 0xFFFF), uint16(id >> 16 & (ProbePortCount - 1))
}

// JoinProbeID reassembles an identifier from its transaction ID and
// source-port index.
func JoinProbeID(txid, portIndex uint16) ProbeID {
	return ProbeID(txid) | ProbeID(portIndex&(ProbePortCount-1))<<16
}

// Encode0x20 re-cases the letters of name so that the first n letters
// carry bits (bit i of bits sets letter i to upper case). Non-letter
// octets are skipped and do not consume bits. It returns the encoded name
// and the number of bits actually embedded, which is limited by the count
// of ASCII letters in the name. Scans re-case the wire name in place with
// Encode0x20Bytes; this string form is its reference.
func Encode0x20(name string, bits uint32, n int) (string, int) {
	out := []byte(name)
	bit := Encode0x20Bytes(out, bits, n)
	return string(out), bit
}

// Encode0x20Bytes is Encode0x20 in place over a raw name, in text or wire
// form (QueryNameWire): the byte-form mirror of Decode0x20Bytes. It
// returns the number of bits embedded.
//
//lint:hotpath per-probe re-casing of the domain-scan query name
func Encode0x20Bytes(name []byte, bits uint32, n int) int {
	bit := 0
	for i := 0; i < len(name) && bit < n; i++ {
		c := name[i]
		if !isLetter(c) {
			continue
		}
		if bits>>uint(bit)&1 == 1 {
			name[i] = c &^ 0x20 // upper
		} else {
			name[i] = c | 0x20 // lower
		}
		bit++
	}
	return bit
}

func isLetter(c byte) bool {
	c |= 0x20
	return 'a' <= c && 'z' >= c
}
