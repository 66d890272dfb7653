// Package snoop implements the resolver-utilization study of §2.6: DNS
// cache snooping. Non-recursive NS queries for 15 TLDs are sent to every
// resolver once per simulated hour for 36 hours; watching the remaining
// TTLs reveals whether real clients keep re-adding entries to the cache —
// the signature of a resolver that is actually in use.
package snoop

import (
	"context"
	"slices"

	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// Class is the utilization verdict for one resolver.
type Class uint8

// Utilization classes, mirroring the paper's breakdown.
const (
	ClassUnreachable  Class = iota // never answered a snooping probe
	ClassEmpty                     // empty responses instead of NS records
	ClassSingleStop                // one response per TLD, then silence
	ClassStaticTTL                 // static or zero TTL on every probe
	ClassInUse                     // ≥3 TLDs re-added after expiry
	ClassResetting                 // TTL reset ahead of expiry
	ClassDecreasing                // decreasing TTL, no expiry in window
	ClassInsufficient              // too little signal to decide
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassUnreachable:
		return "unreachable"
	case ClassEmpty:
		return "empty-responses"
	case ClassSingleStop:
		return "single-then-stop"
	case ClassStaticTTL:
		return "static-ttl"
	case ClassInUse:
		return "in-use"
	case ClassResetting:
		return "ttl-resetting"
	case ClassDecreasing:
		return "decreasing-only"
	default:
		return "insufficient"
	}
}

// Config parameterizes the study.
type Config struct {
	// TLDs are the snooped top-level domains (the paper's 15).
	TLDs []string
	// Hours is the monitoring window (the paper's 36).
	Hours int
	// StartDelayHours is the gap between the identifying scan and the
	// first probe; churn during the gap produces the unreachable share.
	StartDelayHours int
	// MinRefreshTLDs is the re-add threshold to flag a resolver as in
	// use (the paper requires 3 to rule out other scanners' traffic).
	MinRefreshTLDs int
	// BaseTTL is the TLD NS TTL published by the simulated zones.
	BaseTTL uint32
	// Week is the study's position in the longitudinal timeline.
	Week int
}

// DefaultConfig mirrors §2.6.
func DefaultConfig(tlds []string) Config {
	return Config{
		TLDs:            tlds,
		Hours:           36,
		StartDelayHours: 8,
		MinRefreshTLDs:  3,
		BaseTTL:         wildnet.SnoopTTLBase,
		Week:            43, // Nov 30, 2014
	}
}

// Verdict is one resolver's outcome.
type Verdict struct {
	Addr Class
	// RefreshedTLDs counts TLDs observed being re-added after expiry.
	RefreshedTLDs int
	// FastRefresh marks at least one re-add within seconds of expiry
	// (the paper's "frequently used", 38.7%).
	FastRefresh bool
}

// Result aggregates the study.
type Result struct {
	Scanned   int
	Responded int
	Counts    map[Class]int
	// Frequent counts in-use resolvers with a fast re-add.
	Frequent int
	// Verdicts maps resolver address to its class.
	Verdicts map[uint32]Class
}

// series is the per-(resolver, tld) observation history.
type obs struct {
	hour int
	o    scanner.SnoopObs
}

// sortedSet returns resolvers sorted and deduplicated: the strictly
// increasing list a snoop round takes, and the index space of a study's
// per-resolver state.
func sortedSet(resolvers []uint32) []uint32 {
	list := slices.Clone(resolvers)
	slices.Sort(list)
	return slices.Compact(list)
}

// Run executes the snooping study against a resolver population.
// Cancellation checkpoints sit between hourly rounds. A cancelled run, or
// one whose round fails, stops there, classifies whatever history it
// gathered and returns it with the error.
func Run(ctx context.Context, sc *scanner.Scanner, clock interface{ SetTime(wildnet.Time) }, resolvers []uint32, cfg Config) (*Result, error) {
	list := sortedSet(resolvers)
	nT := len(cfg.TLDs)
	// hist[i*nT+ti] is the history of list[i] for TLD ti. A resolver
	// answers a TLD at most once an hour, so each history gets a fixed
	// window of one flat array and appending never reallocates.
	hist := make([][]obs, len(list)*nT)
	window := max(cfg.Hours, 0)
	backing := make([]obs, len(hist)*window)
	for k := range hist {
		hist[k] = backing[k*window : k*window : (k+1)*window]
	}
	seq := make([]uint16, nT) // per-TLD probe counter
	var err error
	for h := 0; h < cfg.Hours && err == nil && ctx.Err() == nil; h++ {
		abs := cfg.StartDelayHours + h
		clock.SetTime(wildnet.Time{Week: cfg.Week, Day: abs / 24, Hour: abs % 24})
		for ti, tld := range cfg.TLDs {
			var round []scanner.SnoopObs
			round, err = sc.SnoopRoundContext(ctx, list, tld, seq[ti])
			seq[ti]++
			for i, o := range round {
				if o.Answered {
					hist[i*nT+ti] = append(hist[i*nT+ti], obs{hour: h, o: o})
				}
			}
			if err != nil {
				break
			}
		}
	}
	res := &Result{
		Scanned:  len(resolvers),
		Counts:   map[Class]int{},
		Verdicts: make(map[uint32]Class, len(list)),
	}
	for _, u := range resolvers {
		i, _ := slices.BinarySearch(list, u)
		v := classify(hist[i*nT:(i+1)*nT], cfg)
		res.Verdicts[u] = v.Addr
		res.Counts[v.Addr]++
		if v.Addr != ClassUnreachable {
			res.Responded++
		}
		if v.Addr == ClassInUse && v.FastRefresh {
			res.Frequent++
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	return res, err
}

// classify reduces one resolver's observation history to a verdict.
func classify(tldHist [][]obs, cfg Config) Verdict {
	var any, allEmpty = false, true
	var totalResponses, answeredTLDs, singleTLDs int
	var ttls []uint32
	refreshed := 0
	fast := false
	resettingVotes, decreasingVotes, cyclingVotes := 0, 0, 0
	for _, hist := range tldHist {
		if len(hist) == 0 {
			continue
		}
		any = true
		answeredTLDs++
		totalResponses += len(hist)
		if len(hist) == 1 {
			singleTLDs++
		}
		empty := true
		for _, e := range hist {
			if !e.o.Empty {
				empty = false
				ttls = append(ttls, e.o.TTL)
			}
		}
		if empty {
			continue
		}
		allEmpty = false
		readd, f, pattern := analyzeTLD(hist, cfg)
		if readd {
			refreshed++
			fast = fast || f
			cyclingVotes++
		}
		switch pattern {
		case patternResetting:
			resettingVotes++
		case patternDecreasing:
			decreasingVotes++
		}
	}
	if !any {
		return Verdict{Addr: ClassUnreachable}
	}
	if allEmpty {
		return Verdict{Addr: ClassEmpty}
	}
	// Single response per answered TLD, then silence.
	if answeredTLDs > 0 && singleTLDs == answeredTLDs && totalResponses == answeredTLDs && cfg.Hours > 2 {
		return Verdict{Addr: ClassSingleStop}
	}
	// Static TTLs: every observed TTL identical (or zero).
	if len(ttls) > 3 {
		static := true
		for _, t := range ttls[1:] {
			if t != ttls[0] {
				static = false
				break
			}
		}
		if static {
			return Verdict{Addr: ClassStaticTTL}
		}
	}
	if refreshed >= cfg.MinRefreshTLDs {
		return Verdict{Addr: ClassInUse, RefreshedTLDs: refreshed, FastRefresh: fast}
	}
	if resettingVotes > decreasingVotes && resettingVotes > cyclingVotes {
		return Verdict{Addr: ClassResetting}
	}
	if decreasingVotes > 0 {
		return Verdict{Addr: ClassDecreasing}
	}
	return Verdict{Addr: ClassInsufficient, RefreshedTLDs: refreshed}
}

type ttlPattern uint8

const (
	patternOther ttlPattern = iota
	patternResetting
	patternDecreasing
)

// analyzeTLD inspects one TLD's TTL time series: was the entry re-added
// after expiry, was the re-add immediate, and what shape does the series
// have otherwise.
func analyzeTLD(hist []obs, cfg Config) (readd bool, fastRefresh bool, pattern ttlPattern) {
	base := int64(cfg.BaseTTL)
	nearBase := 0
	cached := 0
	decreasing := true
	resets := 0
	var prev *obs
	for k := range hist {
		e := &hist[k]
		if e.o.Cached {
			cached++
			if int64(e.o.TTL) >= base-900 {
				nearBase++
			}
		}
		if prev != nil {
			dt := int64(e.hour-prev.hour) * 3600
			switch {
			case prev.o.Cached && e.o.Cached:
				expected := int64(prev.o.TTL) - dt
				if expected < 0 {
					// The entry must have expired in between; seeing
					// it cached again means a client re-added it.
					readd = true
					// Immediate refresh: the new TTL is consistent
					// with re-caching within seconds of expiry.
					sinceExpiry := dt - int64(prev.o.TTL)
					ifImmediate := base - sinceExpiry
					diff := int64(e.o.TTL) - ifImmediate
					if diff < 0 {
						diff = -diff
					}
					if diff <= 30 {
						fastRefresh = true
					}
				} else if int64(e.o.TTL) > expected+60 {
					// TTL jumped up before expiry.
					if int64(e.o.TTL) >= base-900 {
						resets++
					} else {
						readd = true
					}
				}
				if e.o.TTL >= prev.o.TTL {
					decreasing = false
				}
			case !prev.o.Cached && e.o.Cached:
				readd = true
			}
		}
		prev = e
	}
	// Entries that keep snapping back to near-maximum TTL without ever
	// expiring are proactive refreshers / load-balanced pools.
	if resets >= 2 && nearBase >= cached*3/4 && !readd {
		return false, false, patternResetting
	}
	if cached > 0 && decreasing && !readd {
		return readd, fastRefresh, patternDecreasing
	}
	return readd, fastRefresh, patternOther
}
