package lfsr

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
)

// Blacklist is a set of IPv4 ranges excluded from scanning: well-known
// private and unallocated space plus networks that opted out (the paper's
// operators blacklisted 208 ranges and 50 individual addresses on request,
// ~20.8M addresses in total). Ranges are kept sorted and merged as they
// are added, so a lookup is a binary search that writes nothing: once
// built, a Blacklist may be read from any number of goroutines.
type Blacklist struct {
	ranges []ipRange // sorted, disjoint, no two adjacent
}

type ipRange struct{ lo, hi uint32 }

// NewBlacklist returns an empty blacklist.
func NewBlacklist() *Blacklist { return &Blacklist{} }

// DefaultReserved returns a blacklist preloaded with the non-routable and
// special-purpose IPv4 ranges every Internet-wide scan must skip.
// Test support: the root benchmarks generate targets around it.
func DefaultReserved() *Blacklist {
	b := NewBlacklist()
	for _, cidr := range []string{
		"0.0.0.0/8",       // "this" network
		"10.0.0.0/8",      // RFC 1918
		"100.64.0.0/10",   // CGN
		"127.0.0.0/8",     // loopback
		"169.254.0.0/16",  // link local
		"172.16.0.0/12",   // RFC 1918
		"192.0.0.0/24",    // IETF protocol assignments
		"192.0.2.0/24",    // TEST-NET-1
		"192.88.99.0/24",  // 6to4 relay anycast
		"192.168.0.0/16",  // RFC 1918
		"198.18.0.0/15",   // benchmarking
		"198.51.100.0/24", // TEST-NET-2
		"203.0.113.0/24",  // TEST-NET-3
		"224.0.0.0/4",     // multicast
		"240.0.0.0/4",     // reserved / broadcast
	} {
		if err := b.AddCIDR(cidr); err != nil {
			panic(err) // static table; cannot fail
		}
	}
	return b
}

// AddCIDR adds an IPv4 prefix in CIDR notation.
func (b *Blacklist) AddCIDR(cidr string) error {
	p, err := netip.ParsePrefix(cidr)
	if err != nil {
		return fmt.Errorf("lfsr: bad blacklist entry %q: %w", cidr, err)
	}
	if !p.Addr().Is4() {
		return fmt.Errorf("lfsr: blacklist entry %q is not IPv4", cidr)
	}
	lo := addrToU32(p.Addr())
	size := uint64(1) << (32 - p.Bits())
	b.addRange(lo, uint32(uint64(lo)+size-1))
	return nil
}

// AddRange adds the addresses first through last (big-endian uint32
// forms, inclusive), as one range; first > last adds nothing.
func (b *Blacklist) AddRange(first, last uint32) {
	if first <= last {
		b.addRange(first, last)
	}
}

// addRange inserts [lo, hi] in order, merged with every range it
// overlaps or touches.
func (b *Blacklist) addRange(lo, hi uint32) {
	r := b.ranges
	// r[i:j] are the ranges [lo, hi] overlaps or touches.
	i := sort.Search(len(r), func(k int) bool { return uint64(r[k].hi)+1 >= uint64(lo) })
	j := i + sort.Search(len(r)-i, func(k int) bool { return uint64(r[i+k].lo) > uint64(hi)+1 })
	if i < j {
		lo, hi = min(lo, r[i].lo), max(hi, r[j-1].hi)
	}
	b.ranges = slices.Replace(r, i, j, ipRange{lo, hi})
}

// Contains reports whether addr is blacklisted.
func (b *Blacklist) Contains(addr netip.Addr) bool {
	if !addr.Is4() {
		return true
	}
	return b.ContainsU32(addrToU32(addr))
}

// ContainsU32 reports whether the address (as a big-endian uint32) is
// blacklisted. This is the hot-path form used by the target generator:
// the range binary search is open-coded because the generator pays this
// per raw permutation slot. An address outside the envelope [first lo,
// last hi] is answered before the search: a simulated world blacklists
// one infrastructure range at the top of its space, so every census
// target below it costs two compares.
//
//lint:hotpath per-slot blacklist check in the target generator
func (b *Blacklist) ContainsU32(u uint32) bool {
	r := b.ranges
	if len(r) == 0 || u < r[0].lo || u > r[len(r)-1].hi {
		return false
	}
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid].hi >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return r[lo].lo <= u
}

// Size returns the total number of blacklisted addresses.
func (b *Blacklist) Size() uint64 {
	var n uint64
	for _, r := range b.ranges {
		n += uint64(r.hi-r.lo) + 1
	}
	return n
}

// Len returns the number of merged ranges.
func (b *Blacklist) Len() int {
	return len(b.ranges)
}

func addrToU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// U32ToAddr converts a big-endian uint32 to a netip.Addr.
func U32ToAddr(u uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
}

// AddrToU32 converts an IPv4 netip.Addr to its big-endian uint32 form.
func AddrToU32(a netip.Addr) uint32 { return addrToU32(a) }
