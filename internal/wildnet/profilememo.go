package wildnet

import (
	"math/bits"
	"sync/atomic"
)

// The profile memo. A list scan asks one resolver many questions inside
// one tenancy — the domain scan 155 names in a week, the snoop study 15
// TLDs an hour — and every answered question used to derive the whole
// Profile again: nine facet draws, the station probe, the AS lookup and
// the lease epoch. ProfileAt is a pure function of (address, t.Week,
// t.AbsHour()), so the World keeps the profiles it derived last in a
// fixed set-associative table and an answered query pays the derivation
// once per (address, hour). Pure caching: a hit returns exactly what the
// derivation would, and which of two colliding addresses stays is a
// scheduling fact that no draw can see.
//
// The table is read on every answered probe by every sender at once, so
// a hit takes no lock and nothing allocates: each slot is a seqlock over
// four atomic words, and a reader that overlaps a writer derives.

// profileWays is the memo's associativity. A name-major list round
// touches every resolver between two questions to the same one, so the
// table must hold the whole list; with four ways, a set overflows only
// when five of the list's addresses hash into it.
const profileWays = 4

// Memo sizing: at least profileMemoPerResolver entries per expected
// resolver at week 0 (the population only declines), a power of two, at
// most maxProfileMemo entries — 1 MiB of slots at order 20, 8 MiB from
// order 23 on.
const (
	profileMemoPerResolver = 4
	maxProfileMemo         = 1 << 18
)

// profileSlot is one memo entry. seq is even while the entry is stable
// and odd while a writer fills it (zero: never written); key is the
// profileKey held, id the profile's Identity, and packed its small fields
// (packProfile).
type profileSlot struct {
	seq, key, id, packed atomic.Uint64
}

// profileMemo is the World's table of derived profiles, indexed by
// address: all hours of one address share a set.
type profileMemo struct {
	sets  [][profileWays]profileSlot
	shift uint // 32 - log2(len(sets))
}

// newProfileMemo returns a memo of at least entries slots (rounded up to
// a whole power-of-two number of sets).
func newProfileMemo(entries int) profileMemo {
	n := max(1, (entries+profileWays-1)/profileWays)
	lg := bits.Len(uint(n - 1))
	return profileMemo{sets: make([][profileWays]profileSlot, 1<<lg), shift: uint(32 - lg)}
}

// profileKey is the memo key of (u, t): the address and the absolute
// hour, which together fix the week, the lease epoch and so the profile.
// memo is false for a Time whose fields are out of their ranges (two of
// those can share an AbsHour with different weeks); ProfileAt derives
// those every time. Bit 63 marks a key, so an unwritten slot matches none.
//
//lint:hotpath per-query memo key of every answered probe
func profileKey(u uint32, t Time) (key uint64, memo bool) {
	if t.Week < 0 || t.Day < 0 || t.Day >= 7 || t.Hour < 0 || t.Hour >= 24 || t.Week >= 1<<31/(7*24) {
		return 0, false
	}
	return 1<<63 | uint64(t.AbsHour())<<32 | uint64(u), true
}

// set returns the set that holds address u's entries.
func (m *profileMemo) set(u uint32) *[profileWays]profileSlot {
	return &m.sets[(u*0x9E3779B1)>>m.shift]
}

// lookup fills p (all but Country) from the entry for key and reports
// whether there was one.
//
//lint:hotpath per-query profile lookup of every answered probe
func (m *profileMemo) lookup(u uint32, key uint64, p *Profile) bool {
	set := m.set(u)
	for i := range set {
		s := &set[i]
		v := s.seq.Load()
		if v&1 != 0 || s.key.Load() != key {
			continue
		}
		id, packed := s.id.Load(), s.packed.Load()
		if s.seq.Load() != v {
			return false // rewritten under the read
		}
		unpackProfile(p, id, packed)
		return true
	}
	return false
}

// holds reports whether the memo has an entry for key. An entry's key
// is stored only for a derivation that found a resolver, so a match is
// one even while a writer is still filling the rest of the slot.
//
//lint:hotpath per-probe dispatch of every list-scan probe
func (m *profileMemo) holds(u uint32, key uint64) bool {
	set := m.set(u)
	for i := range set {
		if set[i].key.Load() == key {
			return true
		}
	}
	return false
}

// store records p as the profile for key. The victim is the set's entry
// for the same address at another hour, else its first never-written
// way (so a lookup mostly finds an entry in the set's first ways), else
// a way picked by the key. A slot another writer holds is left to it.
func (m *profileMemo) store(u uint32, key uint64, p *Profile) {
	set := m.set(u)
	var victim *profileSlot
	for i := range set {
		s := &set[i]
		if k := s.key.Load(); uint32(k) == u && k != 0 {
			victim = s
			break
		}
		if victim == nil && s.seq.Load() == 0 {
			victim = s
		}
	}
	if victim == nil {
		victim = &set[(key*0x9E3779B97F4A7C15)>>62]
	}
	v := victim.seq.Load()
	if v&1 != 0 || !victim.seq.CompareAndSwap(v, v+1) {
		return
	}
	victim.key.Store(key)
	victim.id.Store(p.Identity)
	victim.packed.Store(packProfile(p))
	victim.seq.Store(v + 2)
}

// packProfile folds a profile's small fields into one word: the three
// catalog indexes plus one (so -1 packs as 0) in 16 bits each, then the
// class fields. Country is not stored; it is the address's AS's.
func packProfile(p *Profile) uint64 {
	w := uint64(uint16(p.SoftwareIdx+1)) | uint64(uint16(p.HiddenIdx+1))<<16 | uint64(uint16(p.DeviceIdx+1))<<32
	w |= uint64(p.RCode)<<48 | uint64(p.Manip)<<50 | uint64(p.Chaos)<<56 | uint64(p.Util)<<58
	if p.MisSourced {
		w |= 1 << 61
	}
	if p.GFWDouble {
		w |= 1 << 62
	}
	return w
}

// unpackProfile is packProfile's inverse.
func unpackProfile(p *Profile, id, w uint64) {
	*p = Profile{
		Identity:    id,
		SoftwareIdx: int(uint16(w)) - 1,
		HiddenIdx:   int(uint16(w>>16)) - 1,
		DeviceIdx:   int(uint16(w>>32)) - 1,
		RCode:       RCodeClass(w >> 48 & 3),
		Manip:       Manip(w >> 50 & 63),
		Chaos:       ChaosClass(w >> 56 & 3),
		Util:        UtilClass(w >> 58 & 7),
		MisSourced:  w>>61&1 != 0,
		GFWDouble:   w>>62&1 != 0,
	}
}
