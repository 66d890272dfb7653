package prand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64AvalanchesSingleBits(t *testing.T) {
	// Flipping one input bit must flip roughly half the output bits.
	base := Mix64(0x123456789ABCDEF)
	for bit := uint(0); bit < 64; bit++ {
		flipped := Mix64(0x123456789ABCDEF ^ (1 << bit))
		diff := base ^ flipped
		n := 0
		for d := diff; d != 0; d &= d - 1 {
			n++
		}
		if n < 12 || n > 52 {
			t.Errorf("bit %d avalanche count %d", bit, n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(h uint64) bool {
		v := Float64(h)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnitOfUniformity(t *testing.T) {
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[int(UnitOf(42, uint64(i))*10)]++
	}
	for b, count := range buckets {
		if math.Abs(float64(count)-n/10) > n/10*0.1 {
			t.Errorf("bucket %d has %d of %d samples", b, count, n)
		}
	}
}

func TestHashOrderSensitive(t *testing.T) {
	if Hash(1, 2) == Hash(2, 1) {
		t.Error("hash ignores word order")
	}
	if Hash(1) == Hash(1, 0) {
		t.Error("hash ignores word count")
	}
}

func TestPick(t *testing.T) {
	w := []float64{0.5, 0.3, 0.2}
	cases := []struct {
		u    float64
		want int
	}{
		{0.0, 0}, {0.49, 0}, {0.5, 1}, {0.79, 1}, {0.8, 2}, {0.999, 2},
	}
	for _, c := range cases {
		if got := Pick(c.u, w); got != c.want {
			t.Errorf("Pick(%f) = %d, want %d", c.u, got, c.want)
		}
	}
	// Out-of-mass values fall to the last index.
	if got := Pick(0.99, []float64{0.1, 0.2}); got != 1 {
		t.Errorf("overflow pick = %d", got)
	}
}

func TestSourceDeterministic(t *testing.T) {
	a, b := NewSource(7), NewSource(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("sources diverged")
		}
	}
	c := NewSource(8)
	if NewSource(7).Next() == c.Next() {
		t.Error("different seeds, same stream")
	}
}

func TestIntNRange(t *testing.T) {
	s := NewSource(3)
	for i := 0; i < 1000; i++ {
		if v := s.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
	}
}

// TestStateResumesHash: a State is a Hash stopped after a prefix — for
// every prefix length the wildnet call sites use (none to four words),
// folding one more word into the State is hashing the longer word list.
func TestStateResumesHash(t *testing.T) {
	f := func(p [4]uint64, n uint8, x uint64) bool {
		prefix := p[:n%5]
		s := Start(prefix...).Add(x)
		all := append(append([]uint64(nil), prefix...), x)
		return s.Sum() == Hash(all...) && s.Unit() == UnitOf(all...) &&
			Start(prefix...).Sum() == Hash(prefix...)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestHashGolden pins Hash itself: State now computes it, and every seeded
// report in the repository is a function of these bits.
func TestHashGolden(t *testing.T) {
	for _, c := range []struct {
		words []uint64
		want  uint64
	}{
		{nil, 0x8445D61A4E774912},
		{[]uint64{0}, Mix64(0x8445D61A4E774912)},
		{[]uint64{1, 2, 3}, Mix64(Mix64(Mix64(0x8445D61A4E774912^1)^2) ^ 3)},
	} {
		if got := Hash(c.words...); got != c.want {
			t.Errorf("Hash(%v) = %#x, want %#x", c.words, got, c.want)
		}
	}
}

// TestFNVGolden pins FNV to the published 64-bit FNV-1a vectors, for a
// string and the same bytes as a slice: names and datagram bytes key
// seeded draws through it, so every report depends on these bits.
func TestFNVGolden(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	} {
		if got := FNV(c.in); got != c.want {
			t.Errorf("FNV(%q) = %#x, want %#x", c.in, got, c.want)
		}
		if got := FNV([]byte(c.in)); got != c.want {
			t.Errorf("FNV([]byte(%q)) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
