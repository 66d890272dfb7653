package scanner

import (
	"sync"
	"sync/atomic"
)

// Response collection used to funnel every receiver callback through one
// mutex-guarded map. At millions of probes per second across 16 sender
// goroutines (the in-memory transport delivers responses synchronously on
// the sending goroutine), that lock is the scan's ceiling. The collectors
// here stripe the state over a power-of-two shard array indexed by a
// multiplicative hash of the key, so concurrent receivers contend only
// when they land on the same shard.

// nStripes is the stripe count. 64 stripes keep the collision probability
// for 16 workers under 2% per access while the whole array stays small
// enough to walk cheaply at collect time.
const nStripes = 64

// shardMask extracts the shard index from the hash's top bits.
const shardShift = 32 - 6 // log2(nStripes) == 6

// shardOf maps a key (an IPv4 address or probe index) to its stripe.
// Knuth's multiplicative hash spreads sequential and LFSR-permuted keys
// evenly; the top bits are the well-mixed ones.
//
//lint:hotpath per-response collector insert
func shardOf(key uint32) uint32 {
	return key * 2654435761 >> shardShift
}

// mapShard is one stripe of a shardedMap, padded out to its own cache
// line so neighboring shard locks do not false-share: an 8-byte mutex
// and an 8-byte map pointer, then 48 bytes of padding.
type mapShard[V any] struct {
	mu sync.Mutex
	m  map[uint32]V
	_  [48]byte
}

// shardedMap is a striped insert-mostly map keyed by uint32. All methods
// are safe for concurrent use.
type shardedMap[V any] struct {
	shards [nStripes]mapShard[V]
}

// newShardedMap sizes each stripe for about hint total entries.
func newShardedMap[V any](hint int) *shardedMap[V] {
	s := new(shardedMap[V])
	per := hint / nStripes
	for i := range s.shards {
		s.shards[i].m = make(map[uint32]V, per)
	}
	return s
}

// InsertOnce stores v under key unless the key is already present,
// reporting whether it stored. First writer wins, matching the dedup
// semantics of the old single-map collectors.
//
//lint:hotpath per-response collector insert
func (s *shardedMap[V]) InsertOnce(key uint32, v V) bool {
	sh := &s.shards[shardOf(key)]
	sh.mu.Lock()
	_, dup := sh.m[key]
	if !dup {
		sh.m[key] = v
	}
	sh.mu.Unlock()
	return !dup
}

// Merge stores v under key, or merge(old, v) when the key is already
// present. With a commutative, associative merge the stored value is the
// same whatever order concurrent writers arrive in.
func (s *shardedMap[V]) Merge(key uint32, v V, merge func(old, v V) V) {
	sh := &s.shards[shardOf(key)]
	sh.mu.Lock()
	if old, dup := sh.m[key]; dup {
		v = merge(old, v)
	}
	sh.m[key] = v
	sh.mu.Unlock()
}

// Get returns the value stored under key.
func (s *shardedMap[V]) Get(key uint32) (V, bool) {
	sh := &s.shards[shardOf(key)]
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok
}

// Len returns the total entry count.
func (s *shardedMap[V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Collect calls fn for every entry, in unspecified order: callers that
// build output from it must sort afterwards, exactly as with a plain map.
func (s *shardedMap[V]) Collect(fn func(key uint32, v V)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			fn(k, v)
		}
		sh.mu.Unlock()
	}
}

// paddedMutex is a mutex on its own cache line.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// stripedMutex guards index-addressed state (CHAOS answer slots, snoop
// observations) without a single global lock: lock of(key) around any
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
