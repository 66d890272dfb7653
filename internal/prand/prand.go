// Package prand provides the deterministic hashing primitives behind the
// procedural virtual Internet: every property of a simulated host is a
// pure function of (seed, ip, facet, epoch), so a population of millions
// of hosts needs no per-host state and two runs with the same seed observe
// exactly the same world.
package prand

// Mix64 is the splitmix64 finalizer: a fast, well-distributed 64→64-bit
// mixing function.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Hash combines an arbitrary number of words into one well-mixed word.
// It folds left to right — h = Mix64(h ^ w) per word — so the value after
// any prefix of the words is itself a resumable State.
func Hash(words ...uint64) uint64 {
	return Start(words...).Sum()
}

// State is a Hash stopped after some prefix of its words: the chain value
// so far. Because Hash folds left to right, Start(a, b).Add(c).Sum() ==
// Hash(a, b, c) by construction, and a caller that draws many values under
// one prefix (the world seed and a facet, or those plus an address) folds
// the prefix once and pays one Mix64 per further word.
type State uint64

// Start folds words into a fresh State.
func Start(words ...uint64) State {
	s := State(0x8445D61A4E774912)
	for _, w := range words {
		s = s.Add(w)
	}
	return s
}

// Add folds one more word in.
//
//lint:hotpath one Mix64 per word on every seeded draw
func (s State) Add(w uint64) State { return State(Mix64(uint64(s) ^ w)) }

// Sum is the Hash of the words folded so far.
//
//lint:hotpath per-draw
func (s State) Sum() uint64 { return uint64(s) }

// Unit is the UnitOf of the words folded so far: Float64(Sum()).
//
//lint:hotpath per-draw
func (s State) Unit() float64 { return Float64(uint64(s)) }

// Float64 maps a hash word to [0, 1).
func Float64(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// FNV is the 64-bit FNV-1a hash of s, the fold that turns a name or a
// datagram into one word a seeded draw can key on.
func FNV[T string | []byte](s T) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}

// UnitOf is shorthand for Float64(Hash(words...)).
func UnitOf(words ...uint64) float64 {
	return Float64(Hash(words...))
}

// IntN maps a hash word to [0, n). n must be positive.
func IntN(h uint64, n int) int {
	return int(h % uint64(n))
}

// Pick selects an index from cumulative weights: weights[i] is the
// probability mass of choice i; they need not sum to 1 (the remainder
// falls on the last index). u must be in [0, 1).
func Pick(u float64, weights []float64) int {
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Source is a tiny deterministic stream generator for places that need a
// sequence of values rather than a keyed lookup.
type Source struct{ state uint64 }

// NewSource seeds a stream.
func NewSource(seed uint64) *Source { return &Source{state: Mix64(seed)} }

// Next returns the next 64-bit value.
func (s *Source) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return Mix64(s.state)
}

// IntN returns the next value in [0, n).
func (s *Source) IntN(n int) int { return IntN(s.Next(), n) }
