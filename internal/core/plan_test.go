package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"goingwild/internal/ampli"
	"goingwild/internal/churn"
	"goingwild/internal/fingerprint"
	"goingwild/internal/metrics"
	"goingwild/internal/netalyzr"
	"goingwild/internal/pipeline"
	"goingwild/internal/snoop"
)

// fullReport holds the handles of every experiment the full text report
// runs (cmd/wildreport's table), in the report's order.
type fullReport struct {
	census   *Census
	series   *Out[*churn.Series]
	chaos    *Out[*fingerprint.ChaosSurvey]
	devices  *Out[*fingerprint.DeviceSurvey]
	cohort   *Out[*churn.CohortStudy]
	util     *Out[*snoop.Result]
	domains  *Out[*DomainStudyResult]
	race     *Out[*DNSSECRaceResult]
	amp      *Out[*ampli.Survey]
	pop      *Out[[]snoop.PopularityEstimate]
	netalyzr *Out[*netalyzr.Study]
}

func addFullReport(p *Plan, week int) *fullReport {
	return &fullReport{
		series:   p.WeeklySeries(nil),
		chaos:    p.Chaos(week),
		devices:  p.Devices(week),
		cohort:   p.Cohort(p.s.Cfg.Weeks),
		util:     p.Utilization(week),
		domains:  p.DomainStudy(week, nil),
		race:     p.DNSSECRace(week, "CN", "wikileaks.org"),
		amp:      p.Amplification(week, "chase.com"),
		pop:      p.Popularity(week),
		netalyzr: p.Netalyzr(week, 400),
		census:   p.Census(week),
	}
}

func planStudy(t *testing.T, profile string, order uint, weeks int) *Study {
	t.Helper()
	cfg, err := ChaosProfileConfig(order, profile)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Weeks = weeks
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// alone runs one experiment on a plan that holds nothing else, over a
// fresh study of the given profile, so the experiment sweeps for itself.
// The plan is returned too, for its census.
func alone[T any](t *testing.T, profile string, order uint, weeks int, add func(*Plan) *Out[T]) (T, *Plan) {
	t.Helper()
	p := planStudy(t, profile, order, weeks).NewPlan()
	out := add(p)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return out.V, p
}

// TestPlanMatchesStandaloneRuns is the tier-1 form of "sharing a census
// changes no result": every experiment of a full report plan — one
// census, every follow-up behind it — yields exactly what a plan holding
// that experiment alone yields on a fresh study of the same seed, where
// the experiment sweeps for itself. Clean and hostile profiles, with the
// scheduler flipped between the two sides.
func TestPlanMatchesStandaloneRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice per profile")
	}
	const order, weeks, week = 14, 4, 3
	ctx := context.Background()
	for _, profile := range []string{"clean", "hostile"} {
		t.Run(profile, func(t *testing.T) {
			old := runtime.GOMAXPROCS(0)
			flipped := 1
			if old == 1 {
				flipped = 4
			}
			runtime.GOMAXPROCS(flipped)
			shared := planStudy(t, profile, order, weeks)
			p := shared.NewPlan()
			full := addFullReport(p, week)
			err := p.Run(ctx)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatal(err)
			}

			check := func(name string, got, want any) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the plan's result differs from the standalone run's", name)
				}
			}
			series, _ := alone(t, profile, order, weeks, func(p *Plan) *Out[*churn.Series] { return p.WeeklySeries(nil) })
			check("series", full.series.V, series)
			chaos, cp := alone(t, profile, order, weeks, func(p *Plan) *Out[*fingerprint.ChaosSurvey] { return p.Chaos(week) })
			check("chaos", full.chaos.V, chaos)
			check("chaos population", len(full.census.Resolvers), len(cp.Census(week).Resolvers))
			devices, _ := alone(t, profile, order, weeks, func(p *Plan) *Out[*fingerprint.DeviceSurvey] { return p.Devices(week) })
			check("devices", full.devices.V, devices)
			cohort, _ := alone(t, profile, order, weeks, func(p *Plan) *Out[*churn.CohortStudy] { return p.Cohort(weeks) })
			check("cohort", full.cohort.V, cohort)
			util, _ := alone(t, profile, order, weeks, func(p *Plan) *Out[*snoop.Result] { return p.Utilization(week) })
			check("utilization", full.util.V, util)
			dom, _ := alone(t, profile, order, weeks, func(p *Plan) *Out[*DomainStudyResult] { return p.DomainStudy(week, nil) })
			check("domains", full.domains.V, dom)
			race, _ := alone(t, profile, order, weeks, func(p *Plan) *Out[*DNSSECRaceResult] { return p.DNSSECRace(week, "CN", "wikileaks.org") })
			check("dnssec", full.race.V, race)
			amp, ap := alone(t, profile, order, weeks, func(p *Plan) *Out[*ampli.Survey] { return p.Amplification(week, "chase.com") })
			check("amplification", full.amp.V, amp)
			check("amplification population", len(full.census.Resolvers), len(ap.Census(week).Resolvers))
			pop, _ := alone(t, profile, order, weeks, func(p *Plan) *Out[[]snoop.PopularityEstimate] { return p.Popularity(week) })
			check("popularity", full.pop.V, pop)
			nz, _ := alone(t, profile, order, weeks, func(p *Plan) *Out[*netalyzr.Study] { return p.Netalyzr(week, 400) })
			check("netalyzr", full.netalyzr.V, nz)
			sweep, err := planStudy(t, profile, order, weeks).SweepAtContext(ctx, week)
			if err != nil {
				t.Fatalf("census standalone: %v", err)
			}
			check("census", full.census.Sweep, sweep)
		})
	}
}

// TestPlanSweepsEachWeekOnce counts the census from the observer's side:
// over a full report plan the week's scan finishes exactly once, however
// many experiments stand behind it, and a second week asked of the same
// plan is one more scan under its own name.
func TestPlanSweepsEachWeekOnce(t *testing.T) {
	s := planStudy(t, "clean", 14, 4)
	done := map[string]int{}
	s.Observer = func(ev pipeline.StageEvent) {
		if ev.Kind == pipeline.StageDone {
			done[ev.Stage]++
		}
	}
	p := s.NewPlan()
	addFullReport(p, 3)
	other := p.Census(2)
	if again := p.Census(2); again != other {
		t.Error("Census(2) returned two handles for one week")
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if done["ipv4-scan"] != 1 || done[other.Stage] != 1 || other.Stage == "ipv4-scan" {
		t.Errorf("census stages done: ipv4-scan ×%d, %s ×%d; want each once under its own name",
			done["ipv4-scan"], other.Stage, done[other.Stage])
	}
	if done["week0-scan"] != 1 || done["weekly-scans"] != 1 {
		t.Errorf("week0-scan ×%d, weekly-scans ×%d; want each once", done["week0-scan"], done["weekly-scans"])
	}
	if other.Sweep == nil || other.Sweep.Total() == 0 {
		t.Error("the second week's census is empty")
	}
}

// TestPlanSeriesIsOneStage watches a series plan from the observer's
// side: it is the one stage "weekly-scans" — started once, done once,
// nothing nested around or inside it — and the per-epoch instruments
// count the weeks the stage applied.
func TestPlanSeriesIsOneStage(t *testing.T) {
	const weeks = 4
	cfg := DefaultConfig(14)
	cfg.Weeks, cfg.Metrics = weeks, metrics.New()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var events []string
	s.Observer = func(ev pipeline.StageEvent) {
		events = append(events, ev.Stage+" "+ev.Kind.String())
	}
	p := s.NewPlan()
	series := p.WeeklySeries(nil)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(series.V.Weeks) != weeks {
		t.Fatalf("series has %d weeks, want %d", len(series.V.Weeks), weeks)
	}
	if want := []string{"weekly-scans start", "weekly-scans done"}; !reflect.DeepEqual(events, want) {
		t.Errorf("stage events %v, want %v", events, want)
	}
	if epochs := cfg.Metrics.Snapshot().Counter("pipeline.epoch.done"); epochs != weeks {
		t.Errorf("pipeline.epoch.done = %d, want %d", epochs, weeks)
	}
	if !bytes.Contains(stripJSON(t, cfg.Metrics), []byte("pipeline.delta.size")) {
		t.Error("stripped snapshot is missing pipeline.delta.size")
	}
}

// TestNewStudyRejectsNegativeWeeks: a negative study length comes from a
// command line (it used to print empty tables, fail in the epoch engine
// or panic in the cohort, depending on the flags beside it) and is
// refused where every binary builds its study; zero stays an empty series.
func TestNewStudyRejectsNegativeWeeks(t *testing.T) {
	cfg := DefaultConfig(14)
	cfg.Weeks = -1
	if s, err := NewStudy(cfg); err == nil {
		s.Close()
		t.Fatal("NewStudy accepted Weeks = -1")
	} else if !strings.Contains(err.Error(), "-weeks") {
		t.Errorf("error %q does not name the flag", err)
	}
	series, _ := alone(t, "clean", 14, 0, func(p *Plan) *Out[*churn.Series] { return p.WeeklySeries(nil) })
	if len(series.Weeks) != 0 {
		t.Errorf("a zero-week study scanned %d weeks", len(series.Weeks))
	}
}

// TestPlanStagesReseatTheClock orders a plan cohort → utilization →
// amplification. The cohort leaves the clock at its last week and the
// snoop 36 hours into its own, so each follow-up measures the right
// instant only if it re-seats the clock itself; each result must be the
// one a plan holding that experiment alone yields.
func TestPlanStagesReseatTheClock(t *testing.T) {
	const week = 1
	ctx := context.Background()
	p := planStudy(t, "hostile", 14, 4).NewPlan()
	p.Cohort(4)
	util, amp := p.Utilization(week), p.Amplification(week, "chase.com")
	if err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	utilAlone, _ := alone(t, "hostile", 14, 4, func(p *Plan) *Out[*snoop.Result] { return p.Utilization(week) })
	if !reflect.DeepEqual(util.V, utilAlone) {
		t.Errorf("utilization after the cohort differs from utilization alone:\n after %+v\n alone %+v", util.V.Counts, utilAlone.Counts)
	}
	ampAlone, _ := alone(t, "hostile", 14, 4, func(p *Plan) *Out[*ampli.Survey] { return p.Amplification(week, "chase.com") })
	if !reflect.DeepEqual(amp.V, ampAlone) {
		t.Errorf("amplification after the snoop differs from amplification alone: %d/%d responded, %d/%d refused",
			amp.V.Responded, ampAlone.Responded, amp.V.Refused, ampAlone.Refused)
	}
}
