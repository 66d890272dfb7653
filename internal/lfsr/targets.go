package lfsr

import "net/netip"

// TargetGenerator yields every address of an IPv4 scan space exactly once
// in LFSR-permuted order, skipping blacklisted addresses. The space is the
// low 2^order addresses of IPv4 when order < 32 (the scaled-down virtual
// Internet), or all of IPv4 for order 32.
//
// The LFSR never emits state 0, so address 0 — which is always inside the
// reserved 0.0.0.0/8 block — needs no special casing.
type TargetGenerator struct {
	reg       *LFSR
	blacklist *Blacklist
	// emitted counts raw permutation slots consumed, blacklisted ones
	// included.
	emitted uint64
	period  uint64
}

// NewTargetGenerator builds a generator over a 2^order address space. A
// nil blacklist skips nothing.
func NewTargetGenerator(order uint, seed uint32, bl *Blacklist) (*TargetGenerator, error) {
	reg, err := New(order, seed)
	if err != nil {
		return nil, err
	}
	return &TargetGenerator{reg: reg, blacklist: bl, period: reg.Period()}, nil
}

// Next returns the next non-blacklisted target. ok is false once the
// permutation has been exhausted.
func (g *TargetGenerator) Next() (addr netip.Addr, ok bool) {
	u, ok := g.NextU32()
	if !ok {
		return netip.Addr{}, false
	}
	return U32ToAddr(u), true
}

// NextU32 is Next without the netip conversion: a batch of one.
//
//lint:hotpath per-probe target generation; senders pull these in a tight loop
func (g *TargetGenerator) NextU32() (u uint32, ok bool) {
	var one [1]uint32
	if g.NextBatch(one[:]) == 0 {
		return 0, false
	}
	return one[0], true
}

// NextBatch fills dst with the next non-blacklisted targets and reports
// how many it produced. A short (or zero) count only happens at the end of
// the permutation. Streaming senders pull batches under a shared lock so
// the generator is touched once per batch, not once per probe.
//
//lint:hotpath per-probe target generation; senders pull these in a tight loop
func (g *TargetGenerator) NextBatch(dst []uint32) int {
	n := 0
	bl := g.blacklist
	for n < len(dst) && g.emitted < g.period {
		u := g.reg.Next()
		g.emitted++
		if bl != nil && bl.ContainsU32(u) {
			continue
		}
		dst[n] = u
		n++
	}
	return n
}

// Reset rewinds the generator to the start of the permutation.
func (g *TargetGenerator) Reset() {
	g.reg.Reset()
	g.emitted = 0
}
