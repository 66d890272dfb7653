// Package resolvesvc is the long-running resolver-intelligence service
// behind cmd/wildsvc: it consumes the streaming epoch engine's delta
// batches into a sharded in-memory result store and answers point
// queries — "is this IP an open resolver? what rcode/country/RIR?
// first/last seen?" — at memory speed, falling back to coalesced
// on-demand probes for targets the store cannot vouch for. It is the
// ZDNS-shaped product layer over the measurement stack: the scanner
// keeps sweeping the (virtual) Internet epoch after epoch, and the
// service turns the resulting knowledge into a high-concurrency lookup
// API.
package resolvesvc

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"goingwild/internal/churn"
	"goingwild/internal/dnswire"
	"goingwild/internal/geodb"
	"goingwild/internal/scanner"
)

// nShards stripes the store 64 ways: concurrent lookups contend only
// when they land on the same stripe, and the epoch-apply writer locks one
// stripe at a time instead of the world.
const nShards = 64

const shardShift = 32 - 6 // log2(nShards) == 6

// shardOf maps a target address to its stripe (Knuth multiplicative
// hash, top bits).
func shardOf(key uint32) uint32 {
	return key * 2654435761 >> shardShift
}

// NeverSeen is the epoch value of Record fields that have no sweep
// evidence yet (a record created by a demand probe for a target no
// sweep has observed answering).
const NeverSeen = -1

// Record is the store's knowledge about one target address. Sweep
// evidence (the epoch delta stream) and demand-probe evidence update
// disjoint aspects: sweeps own the longitudinal fields (FirstSeen,
// LastSeen, Flaps), probes only refresh the current state (Open, RCode,
// Answered) and stamp ProbedAt.
type Record struct {
	// Addr is the target address.
	Addr uint32
	// Open reports whether the target currently answers DNS probes —
	// an "open resolver" in the paper's census sense.
	Open bool
	// RCode and Answered mirror scanner.Responder for open targets.
	RCode    dnswire.RCode
	Answered bool
	// Country and RIR come from the geographic registry, resolved once
	// when the record is created.
	Country string
	RIR     geodb.RIR
	// FirstSeen and LastSeen are the first and most recent epochs a
	// sweep observed the target answering (NeverSeen when no sweep ever
	// has).
	FirstSeen int
	LastSeen  int
	// Flaps counts sweep-observed disappear-then-reappear transitions;
	// it drives the churn-aware refresh TTL (flappier targets expire
	// sooner).
	Flaps int
	// Checked is the last epoch whose delta batch touched this record.
	Checked int
	// ProbedAt is the epoch of the last demand-probe confirmation
	// (NeverSeen if none); Probed marks that the current Open/RCode
	// state came from that probe rather than a sweep.
	ProbedAt int
	Probed   bool
}

// stored is the form a Record takes inside a stripe's map: 24 pointer-free
// bytes against Record's 88 with a string in it, so a store that has seen
// a hundred thousand addresses come and go costs a third of the heap and
// gives the garbage collector nothing to scan. Record stays the type every
// caller sees; pack and unpack are the only code that knows both.
//
// Epochs are int32 (ApplyEpoch refuses one that does not fit). Flaps
// saturate at 65 535, which Fresh cannot tell from any count above 30.
// The address is the map key. The country is an index into the store's
// intern table (see intern).
type stored struct {
	firstSeen, lastSeen, checked, probedAt int32
	flaps                                  uint16
	country                                uint16
	rir                                    geodb.RIR
	rcode                                  dnswire.RCode
	flags                                  uint8
}

// stored.flags bits.
const (
	flagOpen uint8 = 1 << iota
	flagAnswered
	flagProbed
)

// pack converts r to its stored form; country is r.Country's index in the
// store's intern table (Store.intern for a new record, the stored value's
// own index when an existing one is written back).
func pack(r Record, country uint16) stored {
	p := stored{
		firstSeen: int32(r.FirstSeen),
		lastSeen:  int32(r.LastSeen),
		checked:   int32(r.Checked),
		probedAt:  int32(r.ProbedAt),
		flaps:     uint16(min(r.Flaps, math.MaxUint16)),
		country:   country,
		rir:       r.RIR,
		rcode:     r.RCode,
	}
	if r.Open {
		p.flags |= flagOpen
	}
	if r.Answered {
		p.flags |= flagAnswered
	}
	if r.Probed {
		p.flags |= flagProbed
	}
	return p
}

// unpack rebuilds the Record stored under addr.
func (s *Store) unpack(addr uint32, p stored) Record {
	return Record{
		Addr:      addr,
		Open:      p.flags&flagOpen != 0,
		RCode:     p.rcode,
		Answered:  p.flags&flagAnswered != 0,
		Country:   (*s.countries.Load())[p.country],
		RIR:       p.rir,
		FirstSeen: int(p.firstSeen),
		LastSeen:  int(p.lastSeen),
		Flaps:     int(p.flaps),
		Checked:   int(p.checked),
		ProbedAt:  int(p.probedAt),
		Probed:    p.flags&flagProbed != 0,
	}
}

// intern returns country's index in the store's append-only intern table,
// adding it on first sight (once per country code in a store's life). The
// published slice is never written again — a new country publishes a copy
// one entry longer — so unpack reads it without a lock, and an index, once
// handed out, names the same string in every later table. Entry 0 is
// always "", the country of out-of-registry space.
func (s *Store) intern(country string) uint16 {
	s.internMu.Lock()
	defer s.internMu.Unlock()
	if i, ok := s.countryIdx[country]; ok {
		return i
	}
	names := *s.countries.Load()
	if len(names) > math.MaxUint16 {
		// ISO 3166 has ≈ 250 codes; only a Locator inventing names
		// can get here.
		panic("resolvesvc: Locator returned more than 65536 distinct countries")
	}
	i := uint16(len(names))
	next := append(names[:i:i], country)
	s.countryIdx[country] = i
	// internMu serializes every writer; readers only Load.
	s.countries.Store(&next)
	return i
}

// newRecord is the record of a target the store has just learned of:
// located once, no sweep or probe evidence yet. The second result is its
// country's intern index, for pack.
func (s *Store) newRecord(addr uint32, loc churn.Locator) (Record, uint16) {
	country, rir := loc(addr)
	return Record{Addr: addr, Country: country, RIR: rir, FirstSeen: NeverSeen, LastSeen: NeverSeen, ProbedAt: NeverSeen}, s.intern(country)
}

// storeShard is one stripe: an RWMutex-guarded map plus padding so
// neighboring stripe locks do not false-share.
type storeShard struct {
	mu sync.RWMutex
	m  map[uint32]stored
	_  [32]byte
}

// Store is the sharded in-memory result store. Lookups (Get) take one
// stripe read-lock; ApplyEpoch commits a whole epoch delta batch
// transactionally per stripe — a reader sees each record either wholly
// before or wholly after the epoch, never torn, and the published
// Epoch() only advances once every stripe has committed (so Epoch() is
// a floor: records can be newer than it mid-commit, never older).
type Store struct {
	shards  [nShards]storeShard
	epoch   atomic.Int64 // last fully committed epoch; -1 before the first
	records atomic.Int64 // total records (sweep- and probe-created)
	open    atomic.Int64 // records with Open == true

	// The country intern table (see intern): the published names, and
	// under internMu their reverse index.
	countries  atomic.Pointer[[]string]
	internMu   sync.Mutex
	countryIdx map[string]uint16
}

// ttlBase sets the churn-aware refresh TTL: a record seen to flap k
// times goes stale ttlBase>>k epochs (minimum one) after its last
// evidence (see Fresh).
const ttlBase = 8

// NewStore builds an empty store.
func NewStore() *Store {
	s := &Store{}
	s.epoch.Store(-1)
	s.countries.Store(&[]string{""})
	s.countryIdx = map[string]uint16{"": 0}
	for i := range s.shards {
		s.shards[i].m = make(map[uint32]stored)
	}
	return s
}

// Epoch returns the last fully committed epoch (-1 before the first).
func (s *Store) Epoch() int { return int(s.epoch.Load()) }

// Records returns the total record count.
func (s *Store) Records() int { return int(s.records.Load()) }

// OpenCount returns how many records are currently open resolvers.
func (s *Store) OpenCount() int { return int(s.open.Load()) }

// Get returns the record for addr under one stripe read-lock.
func (s *Store) Get(addr uint32) (Record, bool) {
	sh := &s.shards[shardOf(addr)]
	sh.mu.RLock()
	p, ok := sh.m[addr]
	sh.mu.RUnlock()
	if !ok {
		return Record{}, false
	}
	return s.unpack(addr, p), true
}

// Fresh reports whether r can be served without a refresh probe at the
// given committed epoch. Stable records (no observed flaps) are always
// fresh: the sweep re-covers the whole space every epoch, so their
// state is implicitly confirmed by every commit. Flappy records expire
// after ttlBase>>Flaps epochs (minimum one) without fresh evidence —
// either a delta touching them or a demand probe — and a stale lookup
// takes the coalesced probe path to re-confirm them. This is the
// churn-aware refresh cadence: the flappier the sweeps have seen a
// target be, the shorter the service trusts its last observation.
func (s *Store) Fresh(r Record, epoch int) bool {
	if r.Flaps == 0 {
		return true
	}
	shift := r.Flaps
	if shift > 30 {
		shift = 30
	}
	ttl := ttlBase >> uint(shift)
	if ttl < 1 {
		ttl = 1
	}
	evidence := r.Checked
	if r.ProbedAt > evidence {
		evidence = r.ProbedAt
	}
	return epoch-evidence < ttl
}

// ApplyEpoch commits one epoch's delta batch. Deltas are bucketed per
// stripe and each stripe is updated under one write-lock acquisition
// (the per-stripe transaction); the store's epoch advances only after
// every stripe has committed. The batch must follow the stream
// contract (sorted, adds for absent targets, updates/removes for
// present ones); a violation aborts with an error before the epoch is
// published, because it means the producer and the store have drifted.
// So does an epoch the stored form's 32 bits cannot hold.
func (s *Store) ApplyEpoch(epoch int, deltas []scanner.ResponderDelta, loc churn.Locator) error {
	if epoch < math.MinInt32 || epoch > math.MaxInt32 {
		return fmt.Errorf("resolvesvc: epoch %d does not fit the store's 32-bit epochs", epoch)
	}
	var buckets [nShards][]scanner.ResponderDelta
	for _, d := range deltas {
		si := shardOf(d.Addr())
		buckets[si] = append(buckets[si], d)
	}
	var addedRecords, addedOpen int64
	for si := range buckets {
		if len(buckets[si]) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		for _, d := range buckets[si] {
			addr := d.Addr()
			p, exists := sh.m[addr]
			r := s.unpack(addr, p)
			switch d.Op {
			case scanner.DeltaAdd:
				if exists && r.Open && !r.Probed {
					sh.mu.Unlock()
					return fmt.Errorf("resolvesvc: epoch %d add of open target %08x", epoch, addr)
				}
				if !exists {
					r, p.country = s.newRecord(addr, loc)
					addedRecords++
				}
				if !r.Open {
					addedOpen++
				}
				if r.FirstSeen == NeverSeen {
					r.FirstSeen = epoch
				} else {
					// An add for a target with sweep history means the
					// sweep saw it vanish and now reappear: one flap.
					// (Probe-born records have no sweep history and don't
					// count; sweeps own Flaps.)
					r.Flaps++
				}
				r.Open = true
				r.RCode = d.Responder.RCode
				r.Answered = d.Responder.Answered
				r.LastSeen = epoch
				r.Checked = epoch
				r.Probed = false
			case scanner.DeltaUpdate:
				if !exists || r.FirstSeen == NeverSeen {
					sh.mu.Unlock()
					return fmt.Errorf("resolvesvc: epoch %d update of unknown target %08x", epoch, addr)
				}
				if !r.Open {
					addedOpen++
				}
				r.Open = true
				r.RCode = d.Responder.RCode
				r.Answered = d.Responder.Answered
				r.LastSeen = epoch
				r.Checked = epoch
				r.Probed = false
			case scanner.DeltaRemove:
				if !exists || r.FirstSeen == NeverSeen {
					sh.mu.Unlock()
					return fmt.Errorf("resolvesvc: epoch %d remove of unknown target %08x", epoch, addr)
				}
				if r.Open {
					addedOpen--
				}
				r.Open = false
				r.Checked = epoch
				r.Probed = false
			default:
				sh.mu.Unlock()
				return fmt.Errorf("resolvesvc: epoch %d unknown delta op %d", epoch, d.Op)
			}
			sh.m[addr] = pack(r, p.country)
		}
		sh.mu.Unlock()
	}
	s.records.Add(addedRecords)
	s.open.Add(addedOpen)
	s.epoch.Store(int64(epoch))
	return nil
}

// RecordProbe folds one demand-probe observation into the store: the
// current state (Open/RCode/Answered) is refreshed and stamped, the
// sweep-owned longitudinal fields are left alone. A target no sweep
// ever observed gets a probe-born record with FirstSeen == NeverSeen,
// so repeated queries for the same silent address are served from
// memory instead of re-probing every time. epoch is the committed epoch
// the probe ran under (Store.Epoch(), which ApplyEpoch keeps within the
// stored form's 32 bits).
func (s *Store) RecordProbe(addr uint32, epoch int, open bool, rcode dnswire.RCode, answered bool, loc churn.Locator) Record {
	sh := &s.shards[shardOf(addr)]
	sh.mu.Lock()
	p, exists := sh.m[addr]
	r := s.unpack(addr, p)
	if !exists {
		r, p.country = s.newRecord(addr, loc)
		s.records.Add(1)
	}
	if open != r.Open {
		if open {
			s.open.Add(1)
		} else {
			s.open.Add(-1)
		}
	}
	r.Open = open
	if open {
		r.RCode = rcode
		r.Answered = answered
	}
	r.ProbedAt = epoch
	r.Probed = true
	sh.m[addr] = pack(r, p.country)
	sh.mu.Unlock()
	return r
}

// List returns up to limit records sorted by address (limit <= 0 means
// all); openOnly filters to current open resolvers. It walks every
// stripe under read-locks and is meant for status endpoints and the
// load generator, not the lookup hot path.
func (s *Store) List(openOnly bool, limit int) []Record {
	out := make([]Record, 0, s.Records())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for addr, p := range sh.m {
			if openOnly && p.flags&flagOpen == 0 {
				continue
			}
			out = append(out, s.unpack(addr, p))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
