package core

import (
	"context"

	"goingwild/internal/classify"
	"goingwild/internal/domains"
	"goingwild/internal/pipeline"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
)

// DomainStudyResult is the outcome of the full Figure-3 chain over one or
// more domain categories.
type DomainStudyResult struct {
	// Resolvers is the NOERROR population the scan targeted.
	Resolvers []uint32
	Scan      *scanner.DomainScanResult
	Pre       *prefilter.Result
	Report    *classify.Report
	// Fig4 is the country-distribution figure for the censored trio.
	Fig4 *classify.Figure4
	// StageTrace records per-stage tuple counts (the Figure-3 box
	// flow): the very counts steps ❶–❺ hand the engine, filed as they
	// are handed over — there is no separate accounting to fall out of
	// sync.
	StageTrace []StageCount
}

// StageCount is one pipeline-stage measurement.
type StageCount struct {
	Stage string
	Count int
}

// DomainStudy adds steps ❷–❻ at the given week for the given categories
// (nil means all 13) behind the week's census, step ❶: domain scan →
// prefilter → classify → Figure 4. The ground-truth domain is always
// appended, as in §3.3.
func (p *Plan) DomainStudy(week int, cats []domains.Category) *Out[*DomainStudyResult] {
	// ❷'s name list is static configuration, not stage work.
	var names []string
	if cats == nil {
		names = domains.Names()
	} else {
		for _, cat := range cats {
			for _, d := range domains.ByCategory(cat) {
				names = append(names, d.Name)
			}
		}
	}
	names = append(names, domains.GroundTruth)

	s, c, res := p.s, p.Census(week), &DomainStudyResult{}
	var pipe *classify.Pipeline
	// flow files a stage's counts in the result's Figure-3 box flow on
	// their way to the engine. The plan's engine traces every experiment,
	// so the chain keeps its own boxes.
	flow := func(counts ...pipeline.Count) []pipeline.Count {
		for _, n := range counts {
			res.StageTrace = append(res.StageTrace, StageCount{Stage: n.Name, Count: n.Value})
		}
		return counts
	}

	// ❷ Domain scan for the selected categories plus the GT domain, over
	// ❶'s resolvers; ❶'s boxes open the flow.
	c.follow("domain-scan", func(ctx context.Context) ([]pipeline.Count, error) {
		res.Resolvers = c.Resolvers
		var err error
		res.Scan, err = s.Scanner.ScanDomainsContext(ctx, res.Resolvers, names)
		if err != nil {
			return nil, err
		}
		flow(c.counts()...)
		return flow(pipeline.Count{Name: "2-domain-scan probes", Value: len(res.Resolvers) * len(names)}), nil
	})

	// ❸ DNS-based prefiltering.
	p.Add(pipeline.Stage{
		Name: "prefilter",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			res.Pre = prefilter.Run(res.Scan, s.PrefilterEnv(ctx))
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return flow(
				pipeline.Count{Name: "3-unexpected tuples", Value: len(res.Pre.Unexpected)},
				pipeline.Count{Name: "3-unexpected resolvers", Value: len(res.Pre.UnexpectedResolvers())},
			), nil
		},
	})

	// ❹–❻ Acquisition, clustering, labeling, case studies.
	p.Add(pipeline.Stage{
		Name: "classify",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			client := s.client(ctx)
			gt := classify.BuildGroundTruth(client, s.trustedResolver(ctx), names)
			pipe = &classify.Pipeline{
				Client: client,
				ResolverCountry: func(ri int) string {
					return s.World.Geo().LookupU32(res.Resolvers[ri]).Country
				},
				ResolverAddr: func(ri int) uint32 { return res.Resolvers[ri] },
				NearResolver: func(ip uint32, ri int) bool {
					r := res.Resolvers[ri]
					return ip>>8 == r>>8 || s.World.ASNOf(ip) == s.World.ASNOf(r)
				},
				ProbeCountryInjection: func(country, name string) bool {
					return s.ProbeCountryInjection(ctx, country, name)
				},
			}
			res.Report = pipe.Run(res.Scan, res.Pre, gt)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return flow(
				pipeline.Count{Name: "4-fetched pairs", Value: res.Report.PairCount},
				pipeline.Count{Name: "5-clusters", Value: res.Report.Clusters},
			), nil
		},
	})

	// Figure 4 rides after classification (it reads scan + prefilter
	// only, but the figure belongs to the finished report). It reports
	// no Figure-3 counts, keeping the flow exactly the boxes.
	p.Add(pipeline.Stage{
		Name: "figure4",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			res.Fig4 = classify.BuildFigure4(res.Scan, res.Pre, pipe.ResolverCountry,
				[]string{"facebook.com", "twitter.com", "youtube.com"})
			return nil, nil
		},
	})
	return &Out[*DomainStudyResult]{V: res}
}
