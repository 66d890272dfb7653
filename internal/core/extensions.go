package core

import (
	"context"

	"goingwild/internal/ampli"
	"goingwild/internal/domains"
	"goingwild/internal/netalyzr"
	"goingwild/internal/pipeline"
	"goingwild/internal/snoop"
)

// Amplification adds the survey of the population's ANY-query
// amplification potential (the DDoS framing of §1/§3; companion to the
// authors' 2014 amplification study) over the week's census.
func (p *Plan) Amplification(week int, name string) *Out[*ampli.Survey] {
	c, out := p.Census(week), &Out[*ampli.Survey]{}
	c.follow("any-survey", func(ctx context.Context) ([]pipeline.Count, error) {
		var err error
		if out.V, err = ampli.Run(ctx, p.s.Scanner, c.Resolvers, name); err != nil {
			return nil, err
		}
		return []pipeline.Count{{Name: "amplification responders", Value: out.V.Responded}}, nil
	})
	return out
}

// Popularity adds the fine-grained minute-resolution cache probe (§2.6's
// suggested follow-up) over the week's census.
func (p *Plan) Popularity(week int) *Out[[]snoop.PopularityEstimate] {
	c, out := p.Census(week), &Out[[]snoop.PopularityEstimate]{}
	c.follow("minute-snoop", func(ctx context.Context) ([]pipeline.Count, error) {
		cfg := snoop.DefaultPopularityConfig()
		cfg.Week = week
		var err error
		out.V, err = snoop.EstimatePopularity(ctx, p.s.Scanner, p.s.Transport, c.Resolvers, cfg)
		if err != nil {
			return nil, err
		}
		return []pipeline.Count{{Name: "popularity estimates", Value: len(out.V)}}, nil
	})
	return out
}

// Netalyzr adds the in-network volunteer-session study of Weaver et al.
// against the world's *closed* ISP resolvers — the complementary vantage
// §6 suggests combining with the open-resolver scans. It reads no census.
func (p *Plan) Netalyzr(week, sessions int) *Out[*netalyzr.Study] {
	s, out := p.s, &Out[*netalyzr.Study]{}
	isCDNAS := func(asn uint32) bool { return asn >= 7000 && asn < 7060 }
	p.Add(pipeline.Stage{
		Name: "netalyzr",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			s.SetWeek(week)
			out.V = netalyzr.Run(s.World, netalyzr.Config{
				Sessions:       sessions,
				Seed:           s.Cfg.Seed ^ 0x4E7ABC,
				Week:           week,
				ProbeNX:        "ghoogle.com",
				ProbeDomains:   []string{"chase.com", "okcupid.com", domains.GroundTruth},
				TrustedResolve: s.trustedResolver(ctx),
				SameNeighborhood: func(a, b uint32) bool {
					aa, ab := s.World.ASNOf(a), s.World.ASNOf(b)
					return aa == ab || (isCDNAS(aa) && isCDNAS(ab))
				},
			})
			return nil, ctx.Err()
		},
	})
	return out
}
