package core

import (
	"context"
	"fmt"
	"strings"

	"goingwild/internal/domains"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// ChaosSummary is the deterministic record of one end-to-end pipeline
// run under a chaos profile. Every field is a pure function of
// (order, seed, profile, week), so two summaries from identical inputs
// must render byte-identically — that equality is the chaos harness's
// core assertion.
type ChaosSummary struct {
	Profile string
	Week    int
	// SweepTotal is the measured census count; GroundTruth is the
	// planted population a lossless sweep would have seen (flap outages
	// excluded — see wildnet.CountRespondingAt).
	SweepTotal  int
	GroundTruth int
	// NoError is the NOERROR resolver population the domain chain ran on.
	NoError int
	// ChaosResponders counts resolvers answering the CHAOS version scan.
	ChaosResponders int
	// StageTrace is the Figure-3 box flow of the domain chain.
	StageTrace []StageCount
	// Degraded lists the best-effort stages whose failures were
	// absorbed during the run. Empty under the clean profile.
	Degraded []DegradedStage
}

// MissShare is the fraction of the planted population the sweep missed
// (0 when the ground truth is empty).
func (c *ChaosSummary) MissShare() float64 {
	if c.GroundTruth == 0 {
		return 0
	}
	return float64(c.GroundTruth-c.SweepTotal) / float64(c.GroundTruth)
}

// Render serializes the summary into a canonical text form for
// byte-for-byte determinism comparisons.
func (c *ChaosSummary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile=%s week=%d\n", c.Profile, c.Week)
	fmt.Fprintf(&b, "sweep=%d truth=%d noerror=%d chaos=%d\n",
		c.SweepTotal, c.GroundTruth, c.NoError, c.ChaosResponders)
	for _, st := range c.StageTrace {
		fmt.Fprintf(&b, "stage %s=%d\n", st.Stage, st.Count)
	}
	for _, d := range c.Degraded {
		fmt.Fprintf(&b, "degraded %s: %s\n", d.Stage, d.Err)
	}
	return b.String()
}

// RunChaosPipeline builds a fresh study under the named chaos profile
// and drives a compact end-to-end plan at the given week: the
// Internet-wide census (compared against the planted ground truth) and,
// over it, the CHAOS fingerprinting scan and the Figure-3 domain chain
// for one category. It is the harness behind `make chaos` and the chaos
// matrix test: the pipeline must complete without error under every
// profile, and the summary must be byte-identical across runs. reg, when
// set, is threaded through the whole stack (scanner, fault layer, pipeline
// engine), so the harness can assert per-profile fault counters — the
// hostile profile must garble, the flaky profile must flap — alongside
// the summary; nil leaves instrumentation off.
func RunChaosPipeline(ctx context.Context, order uint, profile string, week int, reg *metrics.Registry) (*ChaosSummary, error) {
	cfg, err := ChaosProfileConfig(order, profile)
	if err != nil {
		return nil, err
	}
	cfg.Metrics = reg
	s, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	p := s.NewPlan()
	census, survey := p.Census(week), p.Chaos(week)
	dom := p.DomainStudy(week, []domains.Category{domains.Alexa})
	if err := p.Run(ctx); err != nil {
		return nil, fmt.Errorf("chaos %s: %w", profile, err)
	}
	return &ChaosSummary{
		Profile:         profile,
		Week:            week,
		SweepTotal:      census.Sweep.Total(),
		GroundTruth:     s.World.CountRespondingAt(wildnet.VantagePrimary, wildnet.At(week), s.World.ScanBlacklist().ContainsU32),
		NoError:         len(census.Resolvers),
		ChaosResponders: survey.V.Responded,
		StageTrace:      dom.V.StageTrace,
		Degraded:        s.Degraded,
	}, nil
}
