// Package wildnet is the virtual IPv4 Internet the measurement pipeline
// scans. It procedurally models the population the paper observed — tens
// of millions of open DNS resolvers with realistic geography, software and
// device mixes, churn dynamics, utilization, and (for a small share)
// deliberately manipulated resolution behavior — together with the
// authoritative name-server hierarchy, reverse DNS, web/mail content
// roles, and the Great-Firewall-style response injector.
//
// Every property of every host is a pure function of (world seed, address,
// lease epoch), so the world needs no per-host state: a scaled-down space
// of 2^order addresses behaves statistically like the paper's 2^32 one,
// and two runs with the same seed observe the identical Internet.
package wildnet

import (
	"fmt"
	"net/netip"
	"sync/atomic"

	"goingwild/internal/geodb"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/prand"
)

// Facet tags keep the per-host hash draws independent of each other.
const (
	facetSlot        = 0x01 // is this address an active resolver slot
	facetStability   = 0x02 // churn class
	facetRotate      = 0x03 // weekly lease rotation draw
	facetRCode       = 0x04 // NOERROR / REFUSED / SERVFAIL class
	facetProfile     = 0x05 // manipulation profile
	facetSoftware    = 0x06 // DNS server software
	facetDevice      = 0x07 // hardware device type
	facetUtilization = 0x08 // cache-snooping class
	facetMisSourced  = 0x09 // responds from a different source address
	facetCensor      = 0x0A // per-domain censorship compliance draw
	facetLoss        = 0x0B // packet loss draw
	facetServFail    = 0x0C // weekly SERVFAIL wobble
	facetSnoopHour   = 0x0D // hourly reachability during snooping
	facetRefresh     = 0x0E // client-driven cache refresh activity
	facetGFWDouble   = 0x0F // Chinese double-response resolvers
	facetTCPSvc      = 0x10 // which TCP services are exposed
	facetStaticIP    = 0x11 // target of static-answer resolvers
	facetVersionHide = 0x12 // administrator-hidden version strings
	facetCacheSeed   = 0x13 // cache-state phase for snooping
	facetInfra       = 0x14 // infrastructure address draws
	facetRegion      = 0x15 // CDN region perturbation
	facetVerify      = 0x16 // secondary-vantage behavior draws

	// Fault-injection facets (faults.go). Keep fault draws on their own
	// tags so enabling a FaultConfig never perturbs the base world.
	facetFaultBurst   = 0x17 // loss-burst window gate
	facetFaultDrop    = 0x18 // fault-layer per-packet loss draw
	facetFaultLatency = 0x19 // per-response latency jitter
	facetFaultDup     = 0x1A // response duplication
	facetFaultGarble  = 0x1B // response byte corruption
	facetFaultRate    = 0x1C // rate-limiter admission draw
	facetFaultRateCls = 0x1D // is this resolver a rate limiter
	facetFaultFlap    = 0x1E // mid-scan host outage windows

	// numFacets is one past the last tag; it sizes World.pre.
	numFacets = 0x1F
)

// Config parameterizes a world.
type Config struct {
	// Order is the address-space width in bits; the world spans
	// 2^Order addresses. The paper's Internet is order 32; tests use
	// 16–20 and benches 20–24.
	Order uint
	// Seed selects the world.
	Seed uint64
	// Loss is the probability that any single UDP packet is dropped
	// (applied independently to queries and responses).
	Loss float64
	// Faults layers additional deterministic network pathologies on top
	// of the base loss model: bursts, latency jitter, duplication,
	// garbling, rate-limiting resolvers, and host flaps. The zero value
	// disables the layer entirely (see faults.go and ChaosProfile).
	Faults FaultConfig
	// Metrics, when set, counts every injected fault (drops, bursts,
	// garbles, duplicates, rate-limiter verdicts, flap suppressions)
	// into the registry. A pure side channel: no draw ever reads a
	// counter, so attaching a registry cannot change the world.
	Metrics *metrics.Registry
}

// baseDensity is the fraction of addresses hosting a responding resolver
// at week 0. The paper observes ≈31.2M responders in the 2^32 space
// ≈ 0.73%.
const baseDensity = 31.2e6 / float64(uint64(1)<<32)

// DefaultConfig returns the standard world used by tests and examples.
func DefaultConfig(order uint) Config {
	return Config{
		Order: order,
		Seed:  0x60176A11D,
		Loss:  0.002,
	}
}

// World is one immutable simulated Internet.
type World struct {
	cfg   Config
	geo   *geodb.DB
	mask  uint32
	infra infraMap
	// stations holds the fixed-address rare-behavior resolvers (ad
	// redirectors, proxies, phishers, malware droppers).
	stations map[uint32]Manip
	// dnssec caches zone keys and RRset signatures.
	dnssec dnssecState
	// scale extrapolates simulated counts to paper scale.
	scale float64
	// faultsOn caches Faults.Enabled() so the transport hot path pays a
	// single bool load when the fault layer is disabled.
	faultsOn bool
	// fm counts injected faults; all-nil (no-op) without a registry.
	fm faultMetrics
	// sendRejected counts datagrams the in-memory transport dropped at
	// dispatch because nothing at the destination could answer them
	// (fastpath.go); nil (no-op) without a registry.
	sendRejected *metrics.Counter
	// sendAnswered counts exchanges on the in-memory transport for which
	// the DNS handler produced at least one response; with sendRejected
	// it splits a stage's sent count into rejected + silent + answered.
	// respBytes counts the bytes of every response that transport
	// delivered (a duplicate counts per delivery): the useful-bytes series,
	// and a tripwire that shows any drift of the response encoder as one
	// number. respTruncated counts the responses cut down to an empty TC
	// reply, on either transport. All three are tallied on the answered
	// path only and nil without a registry.
	sendAnswered  *metrics.Counter
	respBytes     *metrics.Counter
	respTruncated *metrics.Counter
	// pre[f] is prand.Start(cfg.Seed, f): the hash prefix every
	// world-seeded draw of facet f resumes. A draw is written
	// w.pre[facetX].Add(word)….Unit() (or .Sum()) and equals
	// prand.UnitOf(cfg.Seed, facetX, word, …) bit for bit, because Hash
	// folds its words left to right; the seed and facet are folded once
	// per world instead of once per draw.
	pre [numFacets]prand.State
	// bc memoizes the per-block facts of the transport fast path for a
	// small fixed set of weeks, direct-mapped by week (fastpath.go). Pure
	// caching: every value is a function of (seed, block, week) the slow
	// path would compute.
	bc [blockCacheWeeks]atomic.Pointer[rejectCache]
	// bcRebuilds counts block-table builds (Timing: which transport
	// touches which week first is a scheduling fact); nil (no-op)
	// without a registry.
	bcRebuilds *metrics.Counter
	// prof memoizes ProfileAt per (address, hour) (profilememo.go); pure
	// caching like bc. profDerived counts the derivations it did not
	// spare (Timing: which of two colliding addresses a sender finds in
	// the table is a scheduling fact); nil (no-op) without a registry.
	prof        profileMemo
	profDerived *metrics.Counter
	// legit holds the canned honest answers to the scan-list names, per
	// CDN region (legitanswer.go); pure caching like bc and prof.
	legit legitTable
}

// CheckOrder refuses an address-space width NewWorld cannot build.
func CheckOrder(order uint) error {
	if order < 14 || order > 32 {
		return fmt.Errorf("order %d out of range [14, 32]", order)
	}
	return nil
}

// NewWorld builds a world from cfg.
func NewWorld(cfg Config) (*World, error) {
	if err := CheckOrder(cfg.Order); err != nil {
		return nil, fmt.Errorf("wildnet: %w", err)
	}
	geo, err := geodb.Build(cfg.Order, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mask := uint32(1)<<cfg.Order - 1
	if cfg.Order == 32 {
		mask = ^uint32(0)
	}
	if err := cfg.Faults.validate(); err != nil {
		return nil, err
	}
	w := &World{
		cfg:           cfg,
		geo:           geo,
		mask:          mask,
		scale:         float64(uint64(1)<<32) / float64(uint64(1)<<cfg.Order),
		faultsOn:      cfg.Faults.Enabled(),
		fm:            newFaultMetrics(cfg.Metrics),
		sendRejected:  cfg.Metrics.Counter("wildnet.send.rejected"),
		sendAnswered:  cfg.Metrics.Counter("wildnet.send.answered"),
		respBytes:     cfg.Metrics.Counter("wildnet.response.bytes"),
		respTruncated: cfg.Metrics.Counter("wildnet.response.truncated"),
		bcRebuilds:    cfg.Metrics.TimingCounter("wildnet.blockcache.rebuilds"),
		profDerived:   cfg.Metrics.TimingCounter("wildnet.profile.derived"),
	}
	w.legit = newLegitTable()
	w.prof = newProfileMemo(min(int(w.ExpectedPopulation(At(0))*profileMemoPerResolver)+1, maxProfileMemo))
	for f := range w.pre {
		w.pre[f] = prand.Start(cfg.Seed, uint64(f))
	}
	w.infra = buildInfraMap(w)
	w.stations = w.buildStations()
	return w, nil
}

// MustNewWorld is NewWorld that panics on error.
// Test support: the tests of other packages build their worlds with it.
func MustNewWorld(cfg Config) *World {
	w, err := NewWorld(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Geo returns the world's geographic registry.
func (w *World) Geo() *geodb.DB { return w.geo }

// Order returns the address-space width.
func (w *World) Order() uint { return w.cfg.Order }

// SpaceSize returns the number of addresses in the world.
func (w *World) SpaceSize() uint64 { return uint64(1) << w.cfg.Order }

// ScaleFactor returns the multiplier that extrapolates simulated counts to
// the paper's 2^32 space.
func (w *World) ScaleFactor() float64 { return w.scale }

// Mask folds an arbitrary uint32 address into the world's space.
func (w *World) Mask(u uint32) uint32 { return u & w.mask }

// Addr converts a world-space uint32 to a netip.Addr.
func (w *World) Addr(u uint32) netip.Addr { return lfsr.U32ToAddr(w.Mask(u)) }

// Time is the simulation clock used throughout the study: a week index
// (0–55), a day within the week, an hour within the day, and a minute
// within the hour. The weekly scans of §2.2 advance Week; the churn
// study of §2.5 uses Day; cache snooping (§2.6) uses Hour; the
// fine-grained popularity probing (the §2.6 follow-up after Rajab et
// al.) uses Minute.
type Time struct {
	Week   int
	Day    int
	Hour   int
	Minute int
}

// AbsDay returns the absolute day index of t.
func (t Time) AbsDay() int { return t.Week*7 + t.Day }

// AbsHour returns the absolute hour index of t.
func (t Time) AbsHour() int { return t.AbsDay()*24 + t.Hour }

// AbsSeconds returns the absolute second index of t.
func (t Time) AbsSeconds() int64 { return int64(t.AbsHour())*3600 + int64(t.Minute)*60 }

// At is shorthand for a week-granularity instant.
func At(week int) Time { return Time{Week: week} }
