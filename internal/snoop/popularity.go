package snoop

import (
	"context"
	"slices"

	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// Fine-grained cache snooping (the follow-up §2.6 suggests, after Rajab
// et al.): probing a TLD at minute granularity reveals the time gap
// between an entry's expiry and its re-caching by the next real client
// lookup. The gap's inverse approximates the resolver's client-lookup
// rate — its popularity.

// PopularityEstimate is one resolver's recovered activity estimate.
type PopularityEstimate struct {
	Addr uint32
	// GapSeconds is the observed expiry→re-cache gap.
	GapSeconds int64
	// RequestsPerHour approximates client pressure on the probed zone
	// as the inverse of the gap.
	RequestsPerHour float64
	// Observations counts the gap samples averaged.
	Observations int
}

// PopularityConfig parameterizes the fine-grained probe.
type PopularityConfig struct {
	// TLD is the snooped zone.
	TLD string
	// Minutes is the probing duration at one-minute intervals.
	Minutes int
	// BaseTTL is the zone's NS TTL.
	BaseTTL uint32
	// Week positions the probe on the study timeline.
	Week int
}

// DefaultPopularityConfig probes the busiest zone for four simulated
// hours.
func DefaultPopularityConfig() PopularityConfig {
	return PopularityConfig{TLD: "com", Minutes: 240, BaseTTL: wildnet.SnoopTTLBase, Week: 43}
}

// EstimatePopularity probes the resolvers every minute and reconstructs
// re-caching gaps from TTL arithmetic: when an entry expires at time E
// and a later probe at time T observes remaining TTL r, the re-caching
// happened at T−(BaseTTL−r), so the gap is that instant minus E.
// Cancellation checkpoints sit between minute rounds. A cancelled run, or
// one whose round fails, stops there and returns the estimates
// recoverable so far together with the error.
func EstimatePopularity(ctx context.Context, sc *scanner.Scanner, clock interface{ SetTime(wildnet.Time) }, resolvers []uint32, cfg PopularityConfig) ([]PopularityEstimate, error) {
	type track struct {
		lastTTL    int64
		lastAt     int64 // seconds
		haveLast   bool
		gapSum     int64
		gapSamples int
	}
	list := sortedSet(resolvers)
	tracks := make([]track, len(list)) // tracks[i] follows list[i]
	base := int64(cfg.BaseTTL)
	var err error
	for minute := 0; minute < cfg.Minutes && err == nil && ctx.Err() == nil; minute++ {
		now := wildnet.Time{Week: cfg.Week, Day: 2, Hour: minute / 60, Minute: minute % 60}
		clock.SetTime(now)
		sec := now.AbsSeconds()
		var round []scanner.SnoopObs
		round, err = sc.SnoopRoundContext(ctx, list, cfg.TLD, uint16(1000+minute))
		for i, o := range round {
			tr := &tracks[i]
			if !o.Cached {
				continue
			}
			ttl := int64(o.TTL)
			if tr.haveLast {
				expected := tr.lastTTL - (sec - tr.lastAt)
				if expected < 0 && ttl > 0 {
					// The entry expired between probes and is back:
					// recover when it was re-added.
					expiry := tr.lastAt + tr.lastTTL
					readd := sec - (base - ttl)
					if gap := readd - expiry; gap >= 0 && gap < base {
						tr.gapSum += gap
						tr.gapSamples++
					}
				}
			}
			tr.lastTTL = ttl
			tr.lastAt = sec
			tr.haveLast = true
		}
	}
	var out []PopularityEstimate
	for _, u := range resolvers {
		i, _ := slices.BinarySearch(list, u)
		tr := &tracks[i]
		if tr.gapSamples == 0 {
			continue
		}
		gap := tr.gapSum / int64(tr.gapSamples)
		est := PopularityEstimate{Addr: u, GapSeconds: gap, Observations: tr.gapSamples}
		if gap > 0 {
			est.RequestsPerHour = 3600 / float64(gap)
		} else {
			est.RequestsPerHour = 3600 // re-cached within the probing resolution
		}
		out = append(out, est)
	}
	if err == nil {
		err = ctx.Err()
	}
	return out, err
}
