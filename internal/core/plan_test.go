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

// TestPlanMatchesStandaloneRuns is the tier-1 form of "sharing a census
// changes no result": every experiment of a full report plan — one
// census, every follow-up behind it — yields exactly what the standalone
// Run*Context method yields on a fresh study of the same seed, where the
// experiment sweeps for itself. Clean and hostile profiles, with the
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

			alone := func() *Study { return planStudy(t, profile, order, weeks) }
			check := func(name string, got, want any, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s standalone: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the plan's result differs from the standalone run's", name)
				}
			}
			series, err := alone().RunWeeklySeriesContext(ctx)
			check("series", full.series.V, series, err)
			chaos, n, err := alone().RunChaosContext(ctx, week)
			check("chaos", full.chaos.V, chaos, err)
			check("chaos population", len(full.census.Resolvers), n, nil)
			devices, err := alone().RunDevicesContext(ctx, week)
			check("devices", full.devices.V, devices, err)
			cohort, err := alone().RunCohortStudyContext(ctx, weeks)
			check("cohort", full.cohort.V, cohort, err)
			util, err := alone().RunUtilizationContext(ctx, week)
			check("utilization", full.util.V, util, err)
			dom, err := alone().RunDomainStudyContext(ctx, week, nil)
			check("domains", full.domains.V, dom, err)
			race, err := alone().RunDNSSECRaceContext(ctx, week, "CN", "wikileaks.org")
			check("dnssec", full.race.V, race, err)
			amp, n, err := alone().RunAmplificationContext(ctx, week, "chase.com")
			check("amplification", full.amp.V, amp, err)
			check("amplification population", len(full.census.Resolvers), n, nil)
			pop, err := alone().RunPopularityContext(ctx, week)
			check("popularity", full.pop.V, pop, err)
			check("netalyzr", full.netalyzr.V, alone().RunNetalyzr(ctx, week, 400), nil)
			sweep, err := alone().SweepAtContext(ctx, week)
			check("census", full.census.Sweep, sweep, err)
			if len(shared.Degraded) != 0 {
				t.Errorf("plan degraded stages: %v", shared.Degraded)
			}
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
	series, err := planStudy(t, "clean", 14, 0).RunWeeklySeriesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
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
	utilAlone, err := planStudy(t, "hostile", 14, 4).RunUtilizationContext(ctx, week)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(util.V, utilAlone) {
		t.Errorf("utilization after the cohort differs from utilization alone:\n after %+v\n alone %+v", util.V.Counts, utilAlone.Counts)
	}
	ampAlone, _, err := planStudy(t, "hostile", 14, 4).RunAmplificationContext(ctx, week, "chase.com")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(amp.V, ampAlone) {
		t.Errorf("amplification after the snoop differs from amplification alone: %d/%d responded, %d/%d refused",
			amp.V.Responded, ampAlone.Responded, amp.V.Refused, ampAlone.Refused)
	}
}
