package wildnet

import (
	"sync/atomic"

	"goingwild/internal/dnswire"
	"goingwild/internal/geodb"
)

// The transport reject path: an Internet-wide sweep sends one probe to
// every address, but at realistic densities fewer than one in a hundred
// addresses hosts anything that answers. Walking the full pipeline
// (payload hash, loss draws, attempt counter, query parse, profile
// construction) for the silent majority caps the in-memory sweep below
// 2M probes/s clean and below 0.5M under a chaos profile.
// sweepClassify decides, from a handful of seeded draws and one per-block
// cache line, that a destination can produce no response for ANY query —
// in which case Send drops the probe on the floor without
// parsing it, exactly as the full pipeline would have.
//
// Soundness contract: sweepClassify(u, v, t, c) == classReject must imply
// that handleDNS(v, srcPort, u, q, t, fc) returns no responses for every
// well-formed query q, every faultCtx fc and every FaultConfig. It may
// answer classDeliver conservatively; that only costs the slow path,
// never correctness. The contract is profile-independent because a fault
// can only drop, delay, duplicate, garble, refuse or flap an exchange
// that exists — none of them creates a responder — so the transport
// consults the predicate first under every chaos profile, through the
// same dispatch as a clean run.
//
// A rejected datagram never touches the base loss draw (pure and
// unmetered), the fault loss draw and its wildnet.fault.drop.query /
// .drop.burst counters, the flap check and wildnet.fault.flap.suppressed,
// or the per-transport attempt counter (so the list scans' retransmission
// map holds deliverable destinations only). Those counters therefore read
// "faults injected into exchanges with a live endpoint". The reject is
// itself counted, in wildnet.send.rejected.
//
// The verdict is memoised. sweepClassify reads nothing but the address,
// the vantage, the clock and the week's block table (itself a pure
// function of the world and the week), so a faulted transport — one
// vantage, one clock until SetTime — keeps a silentMemo of the addresses
// it has found classReject, and a retry round rejects them without
// classifying again. A new input to sweepClassify must also clear the
// memo (SetTime is where it is cleared today), or a retry round rejects
// an address the input has since made deliverable.

// blockInfo caches the per-network-block facts the reject predicate
// needs. Every field is a pure function of (world seed, block, week).
type blockInfo struct {
	// density is densitySlow for any address of the block at the cached
	// week (density inputs are all per-AS/per-week).
	density float64
	// dynamic mirrors the owning AS's DynamicPool flag.
	dynamic bool
	// cn marks Chinese address space, where the GFW injector may answer
	// for a nonexistent resolver.
	cn bool
	// blocksPrimary is true when the AS's FateBlocksScanner event has
	// taken effect: the primary vantage sees nothing from this block.
	blocksPrimary bool
	// hasStations is true when any rare-behavior station lives in the
	// block; the overwhelming majority of blocks have none, which lets
	// the predicate skip the station map lookup entirely.
	hasStations bool
}

// rejectCache is one week's block table, plus the week's
// population-wide constants ProfileAt draws against. They are evaluated
// once per week with the expressions the per-query code used, so every
// draw of the week compares against the same bits it always did.
type rejectCache struct {
	week   int
	blocks []blockInfo
	// pRefused is the REFUSED share of the responder population: Figure
	// 1 shows the REFUSED count staying flat while the total declines, so
	// the share grows inversely with the world decline, capped at 15%.
	pRefused float64
	// pServFail is the week's SERVFAIL share.
	pServFail float64
}

// blockCacheWeeks is how many weeks' block tables a World keeps, direct-
// mapped by week. One is enough for a scan, which stays on its week; a
// wildsvc runs two transports over one World — the sweeper leads the
// committed epoch the demand prober is pinned to by up to
// resolvesvc's epochQueueDepth+2 = 4 weeks — and with a single slot each
// side's batch rebuilt the table the other had just built. Eight
// consecutive weeks never share a slot, so that lead cannot collide
// (resolvesvc's TestServiceBlockCacheRebuildsOncePerWeek holds it there).
const blockCacheWeeks = 8

// blockCache returns the block table for week, building it when the
// week's slot holds another week (or nothing). Builds are rare (one per
// simulated week touched; a colliding week costs a rebuild, never
// correctness) and cheap (one densitySlow per block); racing builders
// publish identical tables, so last-write-wins is safe.
func (w *World) blockCache(week int) *rejectCache {
	slot := &w.bc[uint(week)%blockCacheWeeks]
	if c := slot.Load(); c != nil && c.week == week {
		return c
	}
	w.bcRebuilds.Inc()
	t := Time{Week: week}
	c := &rejectCache{
		week:      week,
		blocks:    make([]blockInfo, w.geo.NumBlocks()),
		pRefused:  min(pRefusedBase/geodb.WorldDeclineAt(week), 0.15),
		pServFail: servFailShare(week),
	}
	for b := range c.blocks {
		base := w.geo.BlockBase(b)
		as := w.geo.ASOfU32(base)
		c.blocks[b] = blockInfo{
			density:       w.densitySlow(base, t),
			dynamic:       as.DynamicPool,
			cn:            as.Country == "CN",
			blocksPrimary: as.Fate == geodb.FateBlocksScanner && week >= as.FateWeek,
		}
	}
	for u := range w.stations {
		c.blocks[w.geo.BlockOf(u&w.mask)].hasStations = true
	}
	slot.Store(c)
	return c
}

// sweepClass is the transport fast-path verdict for one destination.
type sweepClass uint8

const (
	// classDeliver: something at the address may answer — run the full
	// pipeline.
	classDeliver sweepClass = iota
	// classReject: provably silent for every query; drop the probe.
	classReject
	// classCNOnly: empty Chinese address space. Silent for every query
	// except a GFW-listed A question, which the injector answers — the
	// transport decides with an alloc-free peek at the question.
	classCNOnly
)

// sweepClassify is the fast-path decision, factored so batch sends load
// the week's block table once. c must be w.blockCache(t.Week). See the
// soundness contract above; classCNOnly additionally promises that the
// only possible answerer is the injector.
//
//lint:hotpath per-probe reject predicate; the sweep pays this for ~99% of targets
func (w *World) sweepClassify(u uint32, v Vantage, t Time, c *rejectCache) sweepClass {
	u &= w.mask
	// Infrastructure space: only the authoritative and trusted-DNS
	// ranges answer DNS; every other role is silent on port 53.
	switch w.infra.roleOf(u) {
	case RoleNone:
		// ordinary address space — fall through to the resolver draw
	case RoleAuthNS, RoleTrustedDNS:
		return classDeliver
	default:
		return classReject
	}
	bi := &c.blocks[w.geo.BlockOf(u)]
	// Networks that black-hole the primary vantage answer nothing there,
	// stations included (handleDNS checks visibility before profiles).
	if bi.blocksPrimary && v == VantagePrimary {
		return classReject
	}
	// Rare-behavior stations are always-on resolvers.
	if bi.hasStations {
		if _, ok := w.stations[u]; ok {
			return classDeliver
		}
	}
	// The resolver slot draw, exactly as ResolverAt computes it. Its
	// tenancy key is the only part whose cost could depend on the week,
	// and leaseEpochDyn bounds that by 1/rot (≈ 4 draws), not by the
	// week: a silent address costs the same at week 500 as at week 5.
	d := bi.density
	if d > 0 && w.pre[facetSlot].Add(uint64(u)).Add(w.leaseEpochDyn(u, t, bi.dynamic)).Unit() < d {
		return classDeliver
	}
	// No resolver lives here. The injector still reacts to queries into
	// Chinese space, but only to GFW-listed names.
	if bi.cn {
		return classCNOnly
	}
	return classReject
}

// silentMemo holds one bit per address of the world's space, set once
// sweepClassify has returned classReject for the address at the owning
// transport's current clock: 2^order bits, 32 KB at order 18 and 512 KB
// at order 22, the size of the sweep collector's answered bitmap. It
// memoises sweepClassify's own verdict, never Send's final class: a
// classCNOnly address is rejected only through its probe's question, so
// it keeps no bit. A transport keeps one only when its world has faults,
// because only the fault profiles re-send to silent addresses within one
// instant (the sweep's retry rounds); the nil memo of a fault-free
// transport answers has with one nil check.
type silentMemo struct {
	mask uint32
	bits []atomic.Uint64
	// dirty is set once a bit has been set since the last reset, so a
	// reset that follows no send leaves the bitmap alone.
	dirty atomic.Bool
}

func newSilentMemo(mask uint32) *silentMemo {
	return &silentMemo{mask: mask, bits: make([]atomic.Uint64, (uint64(mask)+64)/64)}
}

// has reports whether u is proved silent at the current clock; false on a
// nil memo.
//
//lint:hotpath per-probe memo read before the reject predicate
func (s *silentMemo) has(u uint32) bool {
	if s == nil {
		return false
	}
	u &= s.mask
	return s.bits[u/64].Load()&(uint64(1)<<(u%64)) != 0
}

// set marks u silent. Concurrent senders set bits of one word, so a lost
// CompareAndSwap is retried, as in the sweep collector's answered bitmap.
// The caller notes the set bit with markDirty once per batch.
//
//lint:hotpath per-probe memo write after a reject
func (s *silentMemo) set(u uint32) {
	u &= s.mask
	w, bit := &s.bits[u/64], uint64(1)<<(u%64)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// markDirty records that a bit was set since the last reset. It writes
// the flag only when it is clear, so concurrent senders share the line
// read-only after the first set.
func (s *silentMemo) markDirty() {
	if !s.dirty.Load() {
		s.dirty.Store(true)
	}
}

// reset clears every bit if any was set since the last reset; a nil memo
// does nothing. It must not run concurrently with a send, as the attempt
// counter's reset must not.
func (s *silentMemo) reset() {
	if s == nil || !s.dirty.Swap(false) {
		return
	}
	for i := range s.bits {
		s.bits[i].Store(0)
	}
}

// knownResolver reports whether the profile memo holds a resolver at u at
// time t whose network lets vantage v through: a destination
// sweepClassify would call classDeliver, decided without its tenancy
// draws. A memo entry is only ever stored for a derivation that found a
// resolver (a station or a passed slot draw, never an infrastructure
// address), so the two answers agree. Send asks it only for the
// destination behind a deliverable one: a list scan's batches answer
// throughout and hit here, while a sweep's are silent for ninety-nine
// destinations in a hundred, which would each pay a lookup that misses.
//
//lint:hotpath per-probe dispatch of every list-scan probe
func (w *World) knownResolver(u uint32, v Vantage, t Time, c *rejectCache) bool {
	u &= w.mask
	key, memo := profileKey(u, t)
	if !memo || !w.prof.holds(u, key) {
		return false
	}
	return v != VantagePrimary || !c.blocks[w.geo.BlockOf(u)].blocksPrimary
}

// cnCouldAnswer reports whether a probe into empty Chinese address space
// (classCNOnly) could draw an injector response: a port-53, parseable A
// question for a GFW-listed name is the only stimulus handleDNS answers
// there. Unparseable headers conservatively return true — the full
// pipeline stays the authority on malformed input.
//
//lint:hotpath per-probe CN injector filter
func (m *MemTransport) cnCouldAnswer(dstPort uint16, payload []byte) bool {
	if dstPort != 53 {
		return false
	}
	v := dnswire.GetView()
	defer dnswire.PutView(v)
	if err := v.Reset(payload); err != nil {
		return true
	}
	if v.QDCount() == 0 || v.QType() != dnswire.TypeA {
		return false
	}
	return gfwMatchesWire(v.QName())
}
