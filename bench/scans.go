package main

import (
	"context"
	"math"
	"time"

	"goingwild/internal/core"
	"goingwild/internal/domains"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// censusTolerance is the allowed |measured − planted| ÷ planted census
// deviation, the same budgets the repository's chaos matrix holds the
// sweep to (internal/core/chaos_test.go).
var censusTolerance = map[bool]float64{false: 0.0075, true: 0.0250}

// censusConfig is the study configuration of a census workload. reg is
// non-nil only on the traced pass.
func censusConfig(size sizing, seed uint64, hostile bool, reg *metrics.Registry) (core.Config, error) {
	cfg := core.DefaultConfig(size.CensusOrder)
	if hostile {
		var err error
		if cfg, err = core.ChaosProfileConfig(size.HostileOrder, "hostile"); err != nil {
			return core.Config{}, err
		}
	}
	cfg.Seed = seed
	cfg.Metrics = reg
	return cfg, nil
}

// runCensus is census-clean and census-hostile: full sweeps back to back,
// in whole cycles over censusWeekSet in a seeded order, until the window
// is over. Set-up builds the study, walks the world for the planted
// ground truth of censusTruthWeek, and runs one untimed sweep of that
// week; every cycle repeats it, so every run holds same-week determinism
// checks and ground-truth checks.
func runCensus(ctx context.Context, rc runConfig, hostile bool) (*result, error) {
	name := "census-clean"
	if hostile {
		name = "census-hostile"
	}
	var reg *metrics.Registry
	if rc.Trace != nil {
		reg = metrics.New()
	}
	cfg, err := censusConfig(rc.Size, rc.Seed, hostile, reg)
	if err != nil {
		return nil, err
	}
	sched := weekSchedule(rc.Seed)

	var (
		study  *core.Study
		truth  int
		setups []time.Duration
		seen   = map[int]int{} // week -> responder count first measured
	)
	for rep := 0; rep < rc.Size.SetupReps; rep++ {
		if study != nil {
			study.Close()
		}
		start := time.Now()
		if study, err = core.NewStudy(cfg); err != nil {
			return nil, err
		}
		bl := study.World.ScanBlacklist()
		truth = study.World.CountRespondingAt(wildnet.VantagePrimary, wildnet.At(censusTruthWeek), bl.ContainsU32)
		warm, err := study.SweepAtContext(ctx, censusTruthWeek)
		if err != nil {
			study.Close()
			return nil, err
		}
		seen[censusTruthWeek] = warm.Total()
		setups = append(setups, time.Since(start))
	}
	defer study.Close()

	// The window is rc.Window of sweeping; the yardstick bursts between
	// cycles come on top of it.
	r := &result{Setup: medianDuration(setups)}
	root := rc.Trace.begin("window", -1, name, 0)
	r.Yard.burst()
	for sweep, busy := 0, time.Duration(0); busy < rc.Window; {
		cycle := interval{}
		cpu0, cycleStart := selfCPU(), time.Now()
		for _, week := range sched {
			sp := rc.Trace.begin("core.SweepAtContext", root, name, int64(sweep))
			t0 := time.Now()
			res, err := study.SweepAtContext(ctx, week)
			dur := time.Since(t0)
			rc.Trace.end(sp)
			sweep++
			r.Attempted++
			switch want, repeated := seen[week]; {
			case err != nil:
				r.fail("sweep %d (week %d): %v", sweep, week, err)
				continue
			case repeated && res.Total() != want:
				r.fail("sweep %d: week %d answered %d responders, earlier %d", sweep, week, res.Total(), want)
				continue
			case week == censusTruthWeek && truth > 0 &&
				math.Abs(float64(truth-res.Total()))/float64(truth) > censusTolerance[hostile]:
				r.fail("sweep %d: week %d measured %d responders against %d planted", sweep, week, res.Total(), truth)
				continue
			}
			seen[week] = res.Total()
			cycle.Work += float64(res.Probed)
			r.OpMs = append(r.OpMs, ms(dur))
		}
		cycle.Wall, cycle.CPU = time.Since(cycleStart), selfCPU()-cpu0
		r.Intervals = append(r.Intervals, cycle)
		busy += cycle.Wall
		r.Yard.burst()
	}
	rc.Trace.end(root)
	r.PeakRSSMB = selfPeakRSSMB()
	return r, nil
}

// runDomainScan is domain-scan: the week-9 NOERROR resolvers queried for
// every name of the domain set, repeated for the window. Set-up builds
// the study, runs the census that finds the resolvers, and scans the
// first few names untimed.
func runDomainScan(ctx context.Context, rc runConfig) (*result, error) {
	const name = "domain-scan"
	cfg := core.DefaultConfig(rc.Size.DomainOrder)
	cfg.Seed = rc.Seed
	if rc.Trace != nil {
		cfg.Metrics = metrics.New()
	}
	names := domains.Names()

	var (
		study     *core.Study
		resolvers []uint32
		setups    []time.Duration
		err       error
	)
	for rep := 0; rep < rc.Size.SetupReps; rep++ {
		if study != nil {
			study.Close()
		}
		start := time.Now()
		if study, err = core.NewStudy(cfg); err != nil {
			return nil, err
		}
		census, err := study.SweepAtContext(ctx, domainScanWeek)
		if err != nil {
			study.Close()
			return nil, err
		}
		resolvers = census.NOERROR()
		if _, err := study.Scanner.ScanDomainsContext(ctx, resolvers, names[:domainWarmNames]); err != nil {
			study.Close()
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	defer study.Close()

	r := &result{Setup: medianDuration(setups)}
	tuples := len(resolvers) * len(names)
	answered := -1
	root := rc.Trace.begin("window", -1, name, 0)
	r.Yard.burst()
	for i, busy := 0, time.Duration(0); busy < rc.Window; i++ {
		sp := rc.Trace.begin("scanner.ScanDomainsContext", root, name, int64(i))
		cpu0, t0 := selfCPU(), time.Now()
		res, err := study.Scanner.ScanDomainsContext(ctx, resolvers, names)
		dur, cpu := time.Since(t0), selfCPU()-cpu0
		rc.Trace.end(sp)
		busy += dur
		r.Yard.burst()
		r.Attempted++
		if err != nil {
			r.fail("scan %d: %v", i, err)
			continue
		}
		got, n := 0, 0
		for _, row := range res.Answers {
			got += len(row)
			for k := range row {
				if row[k].Answered() {
					n++
				}
			}
		}
		if got != tuples || tuples == 0 {
			r.fail("scan %d: %d tuples, want %d resolvers x %d names", i, got, len(resolvers), len(names))
			continue
		}
		if answered >= 0 && n != answered {
			r.fail("scan %d: %d tuples answered, earlier repetition %d", i, n, answered)
			continue
		}
		answered = n
		r.Intervals = append(r.Intervals, interval{Work: float64(tuples), Wall: dur, CPU: cpu})
		r.OpMs = append(r.OpMs, ms(dur))
	}
	rc.Trace.end(root)
	r.PeakRSSMB = selfPeakRSSMB()
	return r, nil
}

const (
	// domainScanWeek is the study week whose resolvers the domain scan
	// queries, the same week the report's domain study uses.
	domainScanWeek = 9
	// domainWarmNames is how many names the untimed warm-up scan covers.
	domainWarmNames = 8
)
