package core

import (
	"context"
	"fmt"

	"goingwild/internal/pipeline"
	"goingwild/internal/scanner"
)

// Plan is one report: one list of pipeline stages, the inputs its
// experiments share, and the experiments themselves. Figure 3 starts with
// one "❶ full IPv4 scan" per week, and every follow-up of §2.4–§4 targets
// the resolver list that scan produced. Census adds a week's scan the
// first time the week is asked for, each experiment method adds its own
// stages after it and returns the handle its result lands in, and Run
// executes the lot in the order it was added, so a stage always runs
// after the stages whose results it reads. The sharing dies with the
// plan: Study.SweepAtContext sweeps on every call.
//
// The one invariant an experiment honours: its first stage re-seats the
// clock before it touches the network (Census.follow does it) and never
// assumes the census ran just before it — some other experiment usually
// did, and left the clock where it finished (the cohort at its last
// week, the snoop 36 hours into its own). Re-seating is also why a shared
// census is byte-identical to a private one under every fault profile:
// MemTransport.SetTime restarts the fault layer's retransmission counter,
// so every sweep of a week starts from the same transport state, and a
// sweep's probes are unique per (target, round), so the counter entries
// it leaves are ones no follow-up probe can hit.
type Plan struct {
	s      *Study
	stages []pipeline.Stage
	census map[int]*Census
}

// NewPlan starts an empty plan.
func (s *Study) NewPlan() *Plan {
	return &Plan{s: s, census: map[int]*Census{}}
}

// Add appends a stage.
func (p *Plan) Add(st pipeline.Stage) { p.stages = append(p.stages, st) }

// Run executes the plan, once, on the wall clock. Handles are valid when
// it returns nil. Every stage event goes to two sinks in turn:
// Study.Observer, then the metrics fold of Cfg.Metrics.
func (p *Plan) Run(ctx context.Context) error {
	s, fold := p.s, pipeline.MetricsObserver(p.s.Cfg.Metrics)
	return pipeline.Run(ctx, scanner.SystemClock, p.stages, func(ev pipeline.StageEvent) {
		if s.Observer != nil {
			s.Observer(ev)
		}
		if fold != nil {
			fold(ev)
		}
	})
}

// Out is the typed handle to an experiment's result: V is set by the
// stages that produce it.
type Out[T any] struct{ V T }

// Census is one week's "❶ full IPv4 scan", the input the week's
// point-in-time experiments share: Stage is its stage's name, Sweep
// is its result and Resolvers the NOERROR population every follow-up scan
// targets, both set when the stage runs and read-only after.
type Census struct {
	Stage     string
	Week      int
	Sweep     *scanner.SweepResult
	Resolvers []uint32
	p         *Plan
}

// Census adds the week's scan to the plan the first time the week is
// asked for and returns the same handle every time after.
func (p *Plan) Census(week int) *Census {
	if c, ok := p.census[week]; ok {
		return c
	}
	c := &Census{Stage: "ipv4-scan", Week: week, p: p}
	if len(p.census) > 0 {
		c.Stage = fmt.Sprintf("ipv4-scan@%d", week)
	}
	p.census[week] = c
	p.Add(pipeline.Stage{
		Name: c.Stage,
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			var err error
			if c.Sweep, err = p.s.SweepAtContext(ctx, week); err != nil {
				return nil, err
			}
			c.Resolvers = c.Sweep.NOERROR()
			return c.counts(), nil
		},
	})
	return c
}

// counts are the Figure-3 box annotations of step ❶.
func (c *Census) counts() []pipeline.Count {
	return []pipeline.Count{
		{Name: "1-ipv4-scan responders", Value: c.Sweep.Total()},
		{Name: "1-noerror resolvers", Value: len(c.Resolvers)},
	}
}

// follow adds the stage an experiment opens with: it reads the census
// and re-seats the clock at the census week (see Plan). The experiment's
// later stages continue on the clock this one leaves.
func (c *Census) follow(name string, run func(ctx context.Context) ([]pipeline.Count, error)) {
	c.p.Add(pipeline.Stage{
		Name: name,
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			c.p.s.SetWeek(c.Week)
			return run(ctx)
		},
	})
}
