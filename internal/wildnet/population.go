package wildnet

import (
	"goingwild/internal/geodb"
	"goingwild/internal/prand"
)

// Stability classes model the IP-address churn of §2.5: more than 40% of
// the week-0 cohort disappears within a day, 52.2% within a week, and only
// 4.0% still answer at the same address after 55 weeks, while the total
// population stays within the gradual world decline — resolvers move to
// new addresses rather than vanishing.
type Stability uint8

// Churn classes.
const (
	// StabilityDaily hosts sit on very short DHCP leases; their address
	// changes essentially every day.
	StabilityDaily Stability = iota
	// StabilityWeekly hosts rotate addresses with probability
	// weeklyRotateProb per week.
	StabilityWeekly
	// StabilityStatic hosts keep their address for the whole study.
	StabilityStatic
)

// rotateProbOf draws an address's weekly lease-rotation probability from
// ru, the address's rotation prefix w.pre[facetRotate].Add(u) — the same
// state its per-week draws resume, so leaseEpochDyn folds it once.
// Rates are heterogeneous (0.06–0.46, quadratically skewed toward low
// values) because a single geometric rate cannot reproduce Figure 2's
// shape: a steep first-weeks drop together with a ≈4% tail still alive
// after 55 weeks.
//
//lint:hotpath per-probe draw for every weekly-lease address
func rotateProbOf(ru prand.State) float64 {
	v := ru.Add(0xA77E).Unit()
	return 0.10 + 0.38*v*v
}

// stabilityOf draws the churn class of an address. The mix depends on the
// owning network: consumer broadband pools are almost entirely dynamic.
func (w *World) stabilityOf(u uint32) Stability {
	return w.stabilityOfDyn(u, w.geo.ASOfU32(u).DynamicPool)
}

// stabilityOfDyn is stabilityOf with the owning network's DynamicPool
// flag already in hand — the transport fast path carries it in its
// per-block cache, so the draw skips the registry lookup.
//
//lint:hotpath per-probe churn-class draw
func (w *World) stabilityOfDyn(u uint32, dynamic bool) Stability {
	v := w.pre[facetStability].Add(uint64(u)).Unit()
	if dynamic {
		switch {
		case v < 0.56:
			return StabilityDaily
		case v < 0.98:
			return StabilityWeekly
		default:
			return StabilityStatic
		}
	}
	switch {
	case v < 0.10:
		return StabilityDaily
	case v < 0.80:
		return StabilityWeekly
	default:
		return StabilityStatic
	}
}

// leaseEpochDyn identifies the tenancy of an address at a given time: a
// new epoch means a (statistically) new tenant behind the address. The
// epoch doubles as the identity key for all behavioral draws, so a host
// keeps its personality for exactly one lease. dynamic is the owning
// network's DynamicPool flag (see stabilityOfDyn).
//
//lint:hotpath per-probe tenancy draw; must not grow with the study week
func (w *World) leaseEpochDyn(u uint32, t Time, dynamic bool) uint64 {
	switch w.stabilityOfDyn(u, dynamic) {
	case StabilityDaily:
		// Leases expire at a per-host phase within the day, so a
		// population identified at some hour thins gradually over the
		// following 24 hours (the cache-snooping study observes this
		// as its unreachable share, §2.6). At hour zero the phase
		// cannot matter — (0+phase)/24 is 0 for every phase — so the
		// first census skips the phase draw entirely.
		if t.AbsHour() == 0 {
			return 1
		}
		phase := int(w.pre[facetSnoopHour].Add(uint64(u)).Sum() % 24)
		return uint64((t.AbsHour()+phase)/24) + 1
	case StabilityWeekly:
		// The epoch is the last week in 1..t.Week whose per-(address,
		// week) rotation draw fires, 0 if none has. Walking down from
		// the current week and stopping at the first hit finds it in
		// an expected min(week, 1/rot) ≈ 4 draws: the cost is bounded
		// by 1/rot, not by the week. Every draw resumes the address's
		// rotation prefix, so a week costs one Mix64. No rotation can
		// have happened before week 1, so the first census draws
		// nothing here.
		if t.Week <= 0 {
			return 0
		}
		ru := w.pre[facetRotate].Add(uint64(u))
		rot := rotateProbOf(ru)
		for k := t.Week; k >= 1; k-- {
			if ru.Add(uint64(k)).Unit() < rot {
				return uint64(k)
			}
		}
		return 0
	default:
		return 0
	}
}

// densitySlow combines the base density, the AS's density multiplier, the
// country's interpolated decline, and any AS collapse or fate event. It
// only runs when the block cache is (re)built for a week.
func (w *World) densitySlow(u uint32, t Time) float64 {
	loc := w.geo.LookupU32(u)
	d := baseDensity * loc.AS.DensityMul * geodb.CountryDeclineAt(loc.Country, t.Week)
	if c := loc.AS.Collapse; c != nil && t.Week >= c.Week {
		d *= c.Survive
	}
	if loc.AS.Fate != geodb.FateNone && t.Week >= loc.AS.FateWeek {
		switch loc.AS.Fate {
		case geodb.FateFiltering, geodb.FateShutdown:
			return 0
		case geodb.FateBlocksScanner:
			// Hosts still run resolvers; visibility is a per-vantage
			// question handled by the DNS handler.
		}
	}
	if d > 1 {
		d = 1
	}
	return d
}

// ResolverAt reports whether address u hosts a responding DNS server at
// time t. "Responding" spans all rcode classes of Figure 1 (NOERROR,
// REFUSED, SERVFAIL); use ProfileAt for the class.
func (w *World) ResolverAt(u uint32, t Time) bool {
	u = w.Mask(u)
	if _, ok := w.stations[u]; ok {
		return true // rare-behavior stations are always-on resolvers
	}
	_, ok := w.resolverEpoch(u, t, w.blockCache(t.Week))
	return ok
}

// resolverEpoch draws whether a resolver holds the (masked, non-station)
// address u at time t and returns the lease epoch the draw used — the
// tenancy that also keys the resolver's behavioral identity, valid only
// when ok. c must be w.blockCache(t.Week); density and the DynamicPool
// flag are per-block, so both come from it.
func (w *World) resolverEpoch(u uint32, t Time, c *rejectCache) (epoch uint64, ok bool) {
	if w.infra.roleOf(u) != RoleNone {
		return 0, false // infrastructure addresses are servers, not resolvers
	}
	bi := &c.blocks[w.geo.BlockOf(u)]
	if bi.density == 0 {
		return 0, false
	}
	epoch = w.leaseEpochDyn(u, t, bi.dynamic)
	return epoch, w.pre[facetSlot].Add(uint64(u)).Add(epoch).Unit() < bi.density
}

// VisibleFrom reports whether the resolver's network lets packets from the
// given scan vantage through at time t. The 21 FateBlocksScanner networks
// drop the primary vantage's probes after their fate week but still answer
// the secondary /8 vantage used by the verification scan (§2.2).
func (w *World) VisibleFrom(u uint32, v Vantage, t Time) bool {
	as := w.geo.ASOfU32(w.Mask(u))
	if as.Fate == geodb.FateBlocksScanner && t.Week >= as.FateWeek && v == VantagePrimary {
		return false
	}
	return true
}

// Vantage identifies which of the two scan hosts a probe originates from.
type Vantage uint8

// The two vantage points of §2.2.
const (
	VantagePrimary Vantage = iota
	VantageSecondary
)

// ExpectedPopulation returns the expected number of responding resolvers
// at time t, for sizing rare-behavior quotas and sanity checks.
func (w *World) ExpectedPopulation(t Time) float64 {
	return baseDensity * float64(w.SpaceSize()) * geodb.WorldDeclineAt(t.Week)
}
