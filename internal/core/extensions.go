package core

import (
	"context"

	"goingwild/internal/ampli"
	"goingwild/internal/domains"
	"goingwild/internal/netalyzr"
	"goingwild/internal/pipeline"
	"goingwild/internal/snoop"
)

// RunAmplificationContext surveys the population's ANY-query
// amplification potential (the DDoS framing of §1/§3; companion to the
// authors' 2014 amplification study): census stage, then ANY-survey
// stage.
func (s *Study) RunAmplificationContext(ctx context.Context, week int, name string) (*ampli.Survey, int, error) {
	var (
		resolvers []uint32
		survey    *ampli.Survey
	)
	eng := s.engine()
	eng.MustAdd(s.sweepStage("ipv4-scan", week, &resolvers, nil))
	eng.MustAdd(pipeline.Stage{
		Name:  "any-survey",
		Needs: []string{"ipv4-scan"},
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			survey = ampli.Run(ctx, s.Transport, resolvers, name)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return []pipeline.Count{{Name: "amplification responders", Value: survey.Responded}}, nil
		},
	})
	if _, err := s.runEngine(ctx, eng); err != nil {
		return nil, 0, err
	}
	return survey, len(resolvers), nil
}

// RunPopularityContext executes the fine-grained minute-resolution cache
// probe (§2.6's suggested follow-up) over the resolvers the hourly study
// flagged as in use: census stage, then minute-snoop stage.
func (s *Study) RunPopularityContext(ctx context.Context, week int) ([]snoop.PopularityEstimate, error) {
	var (
		resolvers []uint32
		estimates []snoop.PopularityEstimate
	)
	eng := s.engine()
	eng.MustAdd(s.sweepStage("ipv4-scan", week, &resolvers, nil))
	eng.MustAdd(pipeline.Stage{
		Name:  "minute-snoop",
		Needs: []string{"ipv4-scan"},
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			cfg := snoop.DefaultPopularityConfig()
			cfg.Week = week
			// Index of "com" in the snooped TLD list keeps probe
			// sequence numbers aligned with the hourly study.
			for i, tld := range domains.SnoopedTLDs {
				if tld == cfg.TLD {
					cfg.TLDIdx = i
				}
			}
			var err error
			estimates, err = snoop.EstimatePopularity(ctx, s.Scanner, s.Transport, resolvers, cfg)
			if err != nil {
				return nil, err
			}
			return []pipeline.Count{{Name: "popularity estimates", Value: len(estimates)}}, nil
		},
	})
	if _, err := s.runEngine(ctx, eng); err != nil {
		return nil, err
	}
	return estimates, nil
}

// RunNetalyzr simulates the in-network volunteer-session study of Weaver
// et al. against the world's *closed* ISP resolvers — the complementary
// vantage §6 suggests combining with the open-resolver scans.
func (s *Study) RunNetalyzr(week, sessions int) *netalyzr.Study {
	s.SetWeek(week)
	isCDNAS := func(asn uint32) bool { return asn >= 7000 && asn < 7060 }
	return netalyzr.Run(s.World, netalyzr.Config{
		Sessions:       sessions,
		Seed:           s.Cfg.Seed ^ 0x4E7ABC,
		Week:           week,
		ProbeNX:        "ghoogle.com",
		ProbeDomains:   []string{"chase.com", "okcupid.com", domains.GroundTruth},
		TrustedResolve: s.TrustedResolve,
		SameNeighborhood: func(a, b uint32) bool {
			aa, ab := s.World.ASNOf(a), s.World.ASNOf(b)
			return aa == ab || (isCDNAS(aa) && isCDNAS(ab))
		},
	})
}
