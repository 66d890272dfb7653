package lfsr

import (
	"testing"
)

// collect drains a generator into a slice.
func collect(g *TargetGenerator) []uint32 {
	var out []uint32
	for {
		u, ok := g.NextU32()
		if !ok {
			return out
		}
		out = append(out, u)
	}
}

// TestShardedUnionEqualsPermutation is the tentpole invariant: the
// concatenation-by-slot of the M shard walks is exactly the unsharded
// permutation — same elements, same global order — across orders, shard
// counts, and with and without a blacklist.
func TestShardedUnionEqualsPermutation(t *testing.T) {
	bl := DefaultReserved()
	for _, order := range []uint{12, 16, 20} {
		for _, blacklist := range []*Blacklist{nil, bl} {
			full, err := NewTargetGenerator(order, 0xBEEF, blacklist)
			if err != nil {
				t.Fatal(err)
			}
			want := collect(full)
			for _, m := range []int{2, 3, 4, 8} {
				shards := make([][]uint32, m)
				for i := 0; i < m; i++ {
					g, err := ShardedGenerator(order, 0xBEEF, blacklist, i, m)
					if err != nil {
						t.Fatal(err)
					}
					shards[i] = collect(g)
				}
				// Interleave the shard streams back by slot index. A
				// blacklisted slot is absent from its shard's stream exactly
				// as it is absent from the full walk, so rebuilding the
				// global order needs the raw slot positions: walk the raw
				// register once and pick each slot from its owning shard.
				var merged []uint32
				idx := make([]int, m)
				reg := MustNew(order, 0xBEEF)
				period := reg.Period()
				for pos := uint64(0); pos < period; pos++ {
					u := reg.Next()
					if blacklist != nil && blacklist.ContainsU32(u) {
						continue
					}
					owner := int(pos % uint64(m))
					if idx[owner] >= len(shards[owner]) {
						t.Fatalf("order %d M=%d: shard %d exhausted early at slot %d", order, m, owner, pos)
					}
					if got := shards[owner][idx[owner]]; got != u {
						t.Fatalf("order %d M=%d: shard %d slot mismatch: got %#x want %#x", order, m, owner, got, u)
					}
					idx[owner]++
					merged = append(merged, u)
				}
				for i := 0; i < m; i++ {
					if idx[i] != len(shards[i]) {
						t.Fatalf("order %d M=%d: shard %d emitted %d extra targets", order, m, i, len(shards[i])-idx[i])
					}
				}
				if len(merged) != len(want) {
					t.Fatalf("order %d M=%d: merged %d targets, want %d", order, m, len(merged), len(want))
				}
				for k := range want {
					if merged[k] != want[k] {
						t.Fatalf("order %d M=%d: merged[%d]=%#x want %#x", order, m, k, merged[k], want[k])
					}
				}
			}
		}
	}
}

// TestJumpMatchesNext checks the GF(2) matrix seek against brute-force
// stepping for a spread of distances, including past-period wraps.
func TestJumpMatchesNext(t *testing.T) {
	for _, order := range []uint{3, 12, 16, 20, 32} {
		for _, n := range []uint64{0, 1, 2, 7, 255, 4096, 1<<20 + 17, 1<<34 + 3} {
			jump := MustNew(order, 0xC0FFEE)
			jump.Jump(n)
			step := MustNew(order, 0xC0FFEE)
			// Brute-force only tractable distances; reduce the rest modulo
			// the period first (Jump must agree with that reduction).
			steps := n % step.Period()
			if order <= 20 || n < 1<<21 {
				for i := uint64(0); i < steps; i++ {
					step.Next()
				}
				if jump.state != step.state {
					t.Fatalf("order %d: Jump(%d) state %#x, stepped state %#x", order, n, jump.state, step.state)
				}
			} else {
				ref := MustNew(order, 0xC0FFEE)
				ref.Jump(steps)
				if jump.state != ref.state {
					t.Fatalf("order %d: Jump(%d) != Jump(%d mod period)", order, n, steps)
				}
			}
		}
	}
}

// TestShardedGeneratorRejectsBadShard covers constructor validation.
func TestShardedGeneratorRejectsBadShard(t *testing.T) {
	for _, tc := range []struct{ shard, of int }{{-1, 4}, {4, 4}, {0, 0}, {1, -2}} {
		if _, err := ShardedGenerator(16, 1, nil, tc.shard, tc.of); err == nil {
			t.Fatalf("ShardedGenerator(%d, %d) accepted", tc.shard, tc.of)
		}
	}
}

// TestShardedReset rewinds a shard to its own offset, not slot zero.
func TestShardedReset(t *testing.T) {
	g, err := ShardedGenerator(14, 0x77, nil, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	first := collect(g)
	g.Reset()
	second := collect(g)
	if len(first) != len(second) {
		t.Fatalf("reset walk length %d != %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reset walk diverges at %d", i)
		}
	}
}
