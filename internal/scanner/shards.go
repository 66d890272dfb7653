package scanner

import (
	"sync"
	"sync/atomic"
)

// At millions of probes per second across 16 sender goroutines (the
// in-memory transport delivers responses synchronously on the sending
// goroutine), one collector lock would be the scan's ceiling. Every
// collector is addressed by a dense index (a sweep's target, a list
// scan's list position), so each claims with one of three primitives: a
// claim bit (claimBits: the sweep and the alive scan), a striped lock
// around an index-addressed slot (stripedMutex: CHAOS, snoop and ANY), or
// a response counter (answerSlots: the domain scan).

// nStripes is the stripe count. 64 stripes keep the collision probability
// for 16 workers under 2% per access while the whole array stays small.
const nStripes = 64

// shardShift extracts the stripe index from the hash's top bits.
const shardShift = 32 - 6 // log2(nStripes) == 6

// shardOf maps a key (a list position) to its stripe. Knuth's
// multiplicative hash spreads sequential keys evenly; the top bits are
// the well-mixed ones.
//
//lint:hotpath per-response collector insert
func shardOf(key uint32) uint32 {
	return key * 2654435761 >> shardShift
}

// claimBits holds one bit per index, set by the first response that
// claims it: "first response wins" without a lock. The retry rounds' miss
// check reads a bit the same way.
type claimBits []atomic.Uint64

// newClaimBits returns a cleared bit per index of [0, n).
func newClaimBits(n uint64) claimBits { return make(claimBits, (n+63)/64) }

// claim sets bit i and reports whether this call set it. Neighbouring
// indices share a word, so concurrent receivers set bits in one word and
// the loop retries a lost CompareAndSwap. An index past the end has no
// bit and is never claimed.
//
//lint:hotpath per-response collector insert
func (b claimBits) claim(i uint32) bool {
	wi := uint64(i / 64)
	if wi >= uint64(len(b)) {
		return false
	}
	w, bit := &b[wi], uint64(1)<<(i%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// has reports whether index i is claimed.
//
//lint:hotpath per-probe miss check of a retry round
func (b claimBits) has(i uint32) bool {
	return b[i/64].Load()&(uint64(1)<<(i%64)) != 0
}

// paddedMutex is a mutex on its own cache line.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// stripedMutex guards index-addressed state (CHAOS answer slots, snoop
// observations, ANY answers) without a single global lock: lock of(key) around any
// access to the state that key addresses. Distinct keys may share a
// stripe; that is safe (coarser locking), just slower. The domain scan
// claims its answer slots with answerSlots instead.
type stripedMutex struct {
	locks [nStripes]paddedMutex
}

// of returns the stripe lock for key.
//
//lint:hotpath per-response collector insert
func (s *stripedMutex) of(key uint32) *sync.Mutex {
	return &s.locks[shardOf(key)].Mutex
}

// answerSlots counts the responses to each probe of a domain scan, one
// slot per (name, resolver) tuple, without a lock. A receiver claims its probe's slot (claim returns
// 1 for the first response, 2 for the second, and so on), writes what
// that response records into the probe's own fields, and then publishes.
// The scan reads published counts only — the miss check and the copy into
// TupleAnswer.Responses — so every write behind a count it reads happens
// before the read. Each slot's low word counts claims, its high word
// publishes.
type answerSlots []atomic.Uint64

// claim takes the next response number of slot i.
//
//lint:hotpath per-response collector insert
func (a answerSlots) claim(i uint32) uint32 { return uint32(a[i].Add(1)) }

// publish marks a claimed response of slot i as written.
//
//lint:hotpath per-response collector insert
func (a answerSlots) publish(i uint32) { a[i].Add(1 << 32) }

// published returns how many responses to slot i have been written.
//
//lint:hotpath per-probe miss check of a retry round
func (a answerSlots) published(i uint32) int { return int(a[i].Load() >> 32) }
