package lfsr

import (
	"fmt"
	"net/netip"
)

// TargetGenerator yields every address of an IPv4 scan space exactly once
// in LFSR-permuted order, skipping blacklisted addresses. The space is the
// low 2^order addresses of IPv4 when order < 32 (the scaled-down virtual
// Internet), or all of IPv4 for order 32.
//
// A generator can cover the whole permutation (NewTargetGenerator) or one
// deterministic leapfrog shard of it (ShardedGenerator): shard i of M
// emits exactly the permutation slots i, i+M, i+2M, ... so the union of
// the M shards is the original sequence, with no coordination between
// shard walkers.
//
// The LFSR never emits state 0, so address 0 — which is always inside the
// reserved 0.0.0.0/8 block — needs no special casing.
type TargetGenerator struct {
	reg       *LFSR
	blacklist *Blacklist
	// emitted counts raw permutation slots consumed (including
	// blacklisted ones and, on a sharded generator, the other shards'
	// slots leapfrogged over).
	emitted uint64
	period  uint64
	// stride is the leapfrog decimation factor (1 for a full-permutation
	// generator); offset is this shard's first slot index.
	stride uint64
	offset uint64
}

// NewTargetGenerator builds a generator over a 2^order address space. A
// nil blacklist skips nothing.
func NewTargetGenerator(order uint, seed uint32, bl *Blacklist) (*TargetGenerator, error) {
	return ShardedGenerator(order, seed, bl, 0, 1)
}

// ShardedGenerator builds shard `shard` of `of` over the 2^order space:
// the walker that emits every of-th slot of the seed's permutation
// starting at slot `shard` (leapfrog decimation, as ZMap shards its
// cyclic-group permutation). Shards of the same (order, seed) partition
// the address space exactly.
func ShardedGenerator(order uint, seed uint32, bl *Blacklist, shard, of int) (*TargetGenerator, error) {
	if of < 1 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("lfsr: shard %d/%d out of range", shard, of)
	}
	reg, err := New(order, seed)
	if err != nil {
		return nil, err
	}
	g := &TargetGenerator{
		reg:       reg,
		blacklist: bl,
		period:    reg.Period(),
		stride:    uint64(of),
		offset:    uint64(shard),
	}
	g.reg.Jump(g.offset)
	g.emitted = g.offset
	return g, nil
}

// Next returns the next non-blacklisted target. ok is false once the
// generator's share of the permutation has been exhausted.
func (g *TargetGenerator) Next() (addr netip.Addr, ok bool) {
	u, ok := g.NextU32()
	if !ok {
		return netip.Addr{}, false
	}
	return U32ToAddr(u), true
}

// NextU32 is Next without the netip conversion, for hot scan loops.
//
//lint:hotpath per-probe target generation; senders pull these in a tight loop
func (g *TargetGenerator) NextU32() (u uint32, ok bool) {
	for g.emitted < g.period {
		v := g.reg.Next()
		g.emitted++
		// Leapfrog over the other shards' slots (no-op when stride is 1).
		for s := uint64(1); s < g.stride && g.emitted < g.period; s++ {
			g.reg.Next()
			g.emitted++
		}
		if g.blacklist != nil && g.blacklist.ContainsU32(v) {
			continue
		}
		return v, true
	}
	return 0, false
}

// NextBatch fills dst with the next non-blacklisted targets and reports
// how many it produced. A short (or zero) count only happens at the end of
// the generator's share of the permutation. Streaming senders pull batches
// under a shared lock so the generator is touched once per batch, not once
// per probe.
//
//lint:hotpath per-probe target generation; senders pull these in a tight loop
func (g *TargetGenerator) NextBatch(dst []uint32) int {
	n := 0
	bl := g.blacklist
	if g.stride == 1 {
		// Unsharded fast path: no leapfrog loop, blacklist check hoisted.
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
	for n < len(dst) && g.emitted < g.period {
		u := g.reg.Next()
		g.emitted++
		for s := uint64(1); s < g.stride && g.emitted < g.period; s++ {
			g.reg.Next()
			g.emitted++
		}
		if bl != nil && bl.ContainsU32(u) {
			continue
		}
		dst[n] = u
		n++
	}
	return n
}

// Reset rewinds the generator to the start of its (shard of the)
// permutation.
func (g *TargetGenerator) Reset() {
	g.reg.Reset()
	g.reg.Jump(g.offset)
	g.emitted = g.offset
}
