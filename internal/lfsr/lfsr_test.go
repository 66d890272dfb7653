package lfsr

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"

	"goingwild/internal/alloctest"
)

// mustNew is New for statically valid orders; it panics on error.
func mustNew(order uint, seed uint32) *LFSR {
	l, err := New(order, seed)
	if err != nil {
		panic(err)
	}
	return l
}

// wrapped reports whether the register has returned to its seed state,
// i.e. a full period has been emitted by preceding Next calls.
func (l *LFSR) wrapped() bool { return l.state == l.seed }

// TestMaximalPeriodAllOrders exhaustively verifies maximality up to order
// 20 (a million states) and spot-checks distinctness for larger orders.
func TestMaximalPeriodAllOrders(t *testing.T) {
	for order := uint(3); order <= 20; order++ {
		reg := mustNew(order, 0xDEADBEEF)
		period := reg.Period()
		seen := make([]bool, period+1)
		var count uint64
		for {
			s := reg.Next()
			if s == 0 {
				t.Fatalf("order %d emitted forbidden zero state", order)
			}
			if seen[s] {
				t.Fatalf("order %d repeated state %d after %d steps (period %d)", order, s, count, period)
			}
			seen[s] = true
			count++
			if reg.wrapped() {
				break
			}
		}
		if count != period {
			t.Errorf("order %d: cycle length %d, want %d", order, count, period)
		}
	}
}

func TestLargeOrderNoEarlyRepeat(t *testing.T) {
	for _, order := range []uint{24, 28, 32} {
		reg := mustNew(order, 1)
		const n = 1 << 20
		seen := make(map[uint32]struct{}, n)
		for i := 0; i < n; i++ {
			s := reg.Next()
			if _, dup := seen[s]; dup {
				t.Fatalf("order %d repeated a state within %d steps", order, n)
			}
			seen[s] = struct{}{}
		}
	}
}

func TestNewRejectsBadOrder(t *testing.T) {
	for _, order := range []uint{0, 1, 2, 33, 64} {
		if _, err := New(order, 1); err == nil {
			t.Errorf("order %d accepted", order)
		}
	}
}

func TestZeroSeedCoerced(t *testing.T) {
	reg := mustNew(16, 0)
	if s := reg.Next(); s == 0 {
		t.Error("zero seed produced zero state")
	}
}

func TestResetRestartsSequence(t *testing.T) {
	reg := mustNew(16, 77)
	a := []uint32{reg.Next(), reg.Next(), reg.Next()}
	reg.Reset()
	b := []uint32{reg.Next(), reg.Next(), reg.Next()}
	if a[0] != b[0] || a[1] != b[1] || a[2] != b[2] {
		t.Errorf("reset sequence differs: %v vs %v", a, b)
	}
}

func TestSeedDeterminism(t *testing.T) {
	f := func(seed uint32) bool {
		r1 := mustNew(20, seed)
		r2 := mustNew(20, seed)
		for i := 0; i < 100; i++ {
			if r1.Next() != r2.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlacklistContains(t *testing.T) {
	b := NewBlacklist()
	if err := b.AddCIDR("198.51.100.0/24"); err != nil {
		t.Fatal(err)
	}
	b.AddRange(0x08080808, 0x08080808) // 8.8.8.8
	cases := []struct {
		addr string
		want bool
	}{
		{"198.51.100.0", true},
		{"198.51.100.255", true},
		{"198.51.101.0", false},
		{"198.51.99.255", false},
		{"8.8.8.8", true},
		{"8.8.8.9", false},
	}
	for _, c := range cases {
		if got := b.Contains(netip.MustParseAddr(c.addr)); got != c.want {
			t.Errorf("Contains(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

// TestContainsU32MatchesLinearScan holds the envelope check and binary
// search to a linear scan over the ranges as added, for random range sets
// and the edge shapes: no range, one range, adjacent ranges (merged into
// one), ranges at both ends of the space, and the whole space.
func TestContainsU32MatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type span struct{ lo, hi uint32 }
	sets := [][]span{
		nil,
		{{100, 100}},
		{{100, 199}},
		{{100, 199}, {200, 299}},
		{{0, 0}, {^uint32(0), ^uint32(0)}},
		{{0, 99}, {4000, ^uint32(0)}},
		{{0, ^uint32(0)}},
	}
	for range 200 {
		var set []span
		for range rng.Intn(12) {
			lo := rng.Uint32() >> rng.Intn(32)
			set = append(set, span{lo, lo + uint32(rng.Intn(1000))})
		}
		sets = append(sets, set)
	}
	for i, set := range sets {
		b := NewBlacklist()
		probes := []uint32{0, 1, 99, 100, 101, 199, 200, 299, 300, 3999, 4000, ^uint32(0) - 1, ^uint32(0)}
		for j := range set {
			r := &set[j]
			if r.hi < r.lo { // the random draw wrapped
				r.hi = ^uint32(0)
			}
			if j%2 == 0 {
				b.addRange(r.lo, r.hi)
			} else {
				b.AddRange(r.lo, r.hi)
			}
			for k := 1; k < len(b.ranges); k++ {
				if prev, cur := b.ranges[k-1], b.ranges[k]; prev.lo > prev.hi || uint64(prev.hi)+1 >= uint64(cur.lo) {
					t.Fatalf("set %d %v: ranges %v not sorted and merged after adding %v", i, set, b.ranges, *r)
				}
			}
			probes = append(probes, r.lo-1, r.lo, r.lo+1, r.hi-1, r.hi, r.hi+1)
		}
		for range 64 {
			probes = append(probes, rng.Uint32())
		}
		for _, u := range probes {
			want := false
			for _, r := range set {
				if r.lo <= u && u <= r.hi {
					want = true
				}
			}
			if got := b.ContainsU32(u); got != want {
				t.Fatalf("set %d %v: ContainsU32(%d) = %v, linear scan %v", i, set, u, got, want)
			}
		}
	}
}

// TestBlacklistConcurrentFirstLookups: a lookup writes nothing, so the
// first lookups into a freshly built list may run at once (run it under
// -race). Ranges are added out of order, so a list that sorted on its
// first lookup would be written here.
func TestBlacklistConcurrentFirstLookups(t *testing.T) {
	b := NewBlacklist()
	for _, r := range [][2]uint32{{9000, 9999}, {100, 199}, {5000, 5000}, {200, 299}} {
		b.AddRange(r[0], r[1])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := uint32(g); u < 10100; u += 4 {
				want := 100 <= u && u <= 299 || u == 5000 || 9000 <= u && u <= 9999
				if b.ContainsU32(u) != want {
					errs <- fmt.Sprintf("ContainsU32(%d) = %v", u, !want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if b.Len() != 3 || b.Size() != 200+1+1000 {
		t.Errorf("Len %d, Size %d; want 3 and 1201", b.Len(), b.Size())
	}
}

func TestBlacklistMergesOverlaps(t *testing.T) {
	b := NewBlacklist()
	for _, cidr := range []string{"10.0.0.0/24", "10.0.0.128/25", "10.0.1.0/24"} {
		if err := b.AddCIDR(cidr); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 1 {
		t.Errorf("adjacent+overlapping ranges merged into %d, want 1", b.Len())
	}
	if b.Size() != 512 {
		t.Errorf("Size = %d, want 512", b.Size())
	}
}

func TestDefaultReservedCoversKnownRanges(t *testing.T) {
	b := DefaultReserved()
	for _, addr := range []string{"10.1.2.3", "127.0.0.1", "192.168.1.1", "224.0.0.1", "255.255.255.255", "0.1.2.3"} {
		if !b.Contains(netip.MustParseAddr(addr)) {
			t.Errorf("reserved address %s not blacklisted", addr)
		}
	}
	for _, addr := range []string{"8.8.8.8", "1.1.1.1", "93.184.216.34"} {
		if b.Contains(netip.MustParseAddr(addr)) {
			t.Errorf("public address %s blacklisted", addr)
		}
	}
}

func TestBlacklistRejectsIPv6(t *testing.T) {
	b := NewBlacklist()
	if err := b.AddCIDR("2001:db8::/32"); err == nil {
		t.Error("IPv6 CIDR accepted")
	}
}

func TestTargetGeneratorFullCoverage(t *testing.T) {
	bl := NewBlacklist()
	if err := bl.AddCIDR("0.0.0.64/26"); err != nil { // 64 addresses inside the 2^10 space
		t.Fatal(err)
	}
	g, err := NewTargetGenerator(10, 99, bl)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]struct{})
	for {
		u, ok := g.NextU32()
		if !ok {
			break
		}
		if bl.ContainsU32(u) {
			t.Fatalf("emitted blacklisted address %d", u)
		}
		if _, dup := seen[u]; dup {
			t.Fatalf("duplicate target %d", u)
		}
		seen[u] = struct{}{}
	}
	// 2^10-1 states minus 64 blacklisted ones (state 0 is never emitted
	// and 0 is not in the blacklist's 64..127 range).
	if want := 1023 - 64; len(seen) != want {
		t.Errorf("coverage = %d targets, want %d", len(seen), want)
	}
}

// TestNextU32Allocs holds the one-target pull to the zero-alloc
// contract, blacklisted slots skipped on the way: no allocation in at
// least one of alloctest.Count's three windows of 6 400 pulls.
func TestNextU32Allocs(t *testing.T) {
	bl := NewBlacklist()
	if err := bl.AddCIDR("0.0.0.64/26"); err != nil {
		t.Fatal(err)
	}
	g, err := NewTargetGenerator(16, 99, bl)
	if err != nil {
		t.Fatal(err)
	}
	if n := alloctest.Count(100, func() {
		for i := 0; i < 64; i++ {
			if _, ok := g.NextU32(); !ok {
				t.Fatal("permutation exhausted")
			}
		}
	}); n != 0 {
		t.Fatalf("100 runs of 64 NextU32 pulls allocate %d times, want 0", n)
	}
}

func TestTargetGeneratorReset(t *testing.T) {
	g, err := NewTargetGenerator(12, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Next()
	g.Reset()
	b, _ := g.Next()
	if a != b {
		t.Errorf("reset changed first target: %v vs %v", a, b)
	}
}

func TestU32AddrRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		return AddrToU32(U32ToAddr(u)) == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
