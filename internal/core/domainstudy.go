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
	// flow). The counts are emitted by the pipeline stages themselves
	// and collected from the engine's trace — there is no separate
	// accounting to fall out of sync.
	StageTrace []StageCount
}

// StageCount is one pipeline-stage measurement.
type StageCount struct {
	Stage string
	Count int
}

// RunDomainStudyContext executes steps ❶–❻ at the given week for the
// given categories (nil means all 13) as a pipeline: census → domain
// scan → prefilter → classify → Figure 4. The ground-truth domain is
// always appended, as in §3.3.
func (s *Study) RunDomainStudyContext(ctx context.Context, week int, cats []domains.Category) (*DomainStudyResult, error) {
	s.SetWeek(week)

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

	res := &DomainStudyResult{}
	var pipe *classify.Pipeline
	eng := s.engine()

	// ❶ Full IPv4 scan.
	eng.MustAdd(s.sweepStage("ipv4-scan", week, &res.Resolvers, nil))

	// ❷ Domain scan for the selected categories plus the GT domain.
	eng.MustAdd(pipeline.Stage{
		Name:  "domain-scan",
		Needs: []string{"ipv4-scan"},
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			var err error
			res.Scan, err = s.Scanner.ScanDomainsContext(ctx, res.Resolvers, names)
			if err != nil {
				return nil, err
			}
			return []pipeline.Count{{Name: "2-domain-scan probes", Value: len(res.Resolvers) * len(names)}}, nil
		},
	})

	// ❸ DNS-based prefiltering.
	eng.MustAdd(pipeline.Stage{
		Name:  "prefilter",
		Needs: []string{"domain-scan"},
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			res.Pre = prefilter.Run(res.Scan, s.PrefilterEnv())
			return []pipeline.Count{
				{Name: "3-unexpected tuples", Value: len(res.Pre.Unexpected)},
				{Name: "3-unexpected resolvers", Value: len(res.Pre.UnexpectedResolvers())},
			}, nil
		},
	})

	// ❹–❻ Acquisition, clustering, labeling, case studies.
	eng.MustAdd(pipeline.Stage{
		Name:  "classify",
		Needs: []string{"prefilter"},
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			gt := classify.BuildGroundTruth(s.Client, s.TrustedResolve, names)
			pipe = &classify.Pipeline{
				Client: s.Client,
				ResolverCountry: func(ri int) string {
					return s.World.Geo().LookupU32(res.Resolvers[ri]).Country
				},
				ResolverAddr: func(ri int) uint32 { return res.Resolvers[ri] },
				NearResolver: func(ip uint32, ri int) bool {
					r := res.Resolvers[ri]
					return ip>>8 == r>>8 || s.World.ASNOf(ip) == s.World.ASNOf(r)
				},
				ProbeCountryInjection: s.ProbeCountryInjection,
			}
			res.Report = pipe.Run(res.Scan, res.Pre, gt)
			return []pipeline.Count{
				{Name: "4-fetched pairs", Value: res.Report.PairCount},
				{Name: "5-clusters", Value: res.Report.Clusters},
			}, nil
		},
	})

	// Figure 4 rides after classification (it reads scan + prefilter
	// only, but the figure belongs to the finished report). It reports
	// no Figure-3 counts, keeping the trace exactly the box flow. The
	// figure is presentation, not measurement, so a failure degrades to
	// an empty figure instead of discarding the whole chain.
	eng.MustAdd(pipeline.Stage{
		Name:   "figure4",
		Needs:  []string{"classify"},
		Policy: pipeline.BestEffort,
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			res.Fig4 = classify.BuildFigure4(res.Scan, res.Pre, pipe.ResolverCountry,
				[]string{"facebook.com", "twitter.com", "youtube.com"})
			return nil, nil
		},
	})

	trace, err := s.runEngine(ctx, eng)
	if err != nil {
		return nil, err
	}
	if res.Fig4 == nil {
		// Degraded: an empty figure keeps the renderers total-safe.
		res.Fig4 = &classify.Figure4{}
	}
	for _, c := range trace.Counts() {
		res.StageTrace = append(res.StageTrace, StageCount{Stage: c.Name, Count: c.Value})
	}
	return res, nil
}

// CensorCoverageFor exposes the per-country compliance ratio for one
// domain of a finished study.
func (r *DomainStudyResult) CensorCoverageFor(country func(ri int) string, name string) map[string]float64 {
	return classify.CensorCoverage(r.Scan, r.Pre, country, name)
}
