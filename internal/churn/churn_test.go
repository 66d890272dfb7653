package churn

import (
	"context"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/geodb"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

type rig struct {
	w  *wildnet.World
	tr *wildnet.MemTransport
	sc *scanner.Scanner
}

func newRig(t testing.TB, order uint) *rig { return newChaosRig(t, order, "clean") }

// newChaosRig builds the rig over a world under a named fault profile,
// with the sweep retransmission the study runs such profiles with.
func newChaosRig(t testing.TB, order uint, profile string) *rig {
	t.Helper()
	faults, err := wildnet.ChaosProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := wildnet.DefaultConfig(order)
	wcfg.Faults = faults
	w, err := wildnet.NewWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	opts := scanner.Options{Workers: 4, SettleDelay: time.Millisecond}
	if faults.Enabled() {
		opts.SweepRetries = 2
	}
	return &rig{w: w, tr: tr, sc: scanner.New(tr, opts)}
}

func (r *rig) locator() Locator {
	return func(u uint32) (string, geodb.RIR) {
		loc := r.w.Geo().LookupU32(u)
		return loc.Country, loc.RIR
	}
}

// runWeeklyReference is the batch weekly series the program ran until
// StreamWeekly became its only weekly loop, kept as the oracle the
// differential tests compare the stream against: cfg.Weeks full sweeps,
// each aggregated from scratch, the responder lists of retainWeeks kept.
func runWeeklyReference(ctx context.Context, sc *scanner.Scanner, clock Clock, loc Locator, cfg StudyConfig, retainWeeks []int) (*Series, error) {
	retain := map[int]bool{}
	for _, w := range retainWeeks {
		retain[w] = true
	}
	series := &Series{}
	for week := 0; week < cfg.Weeks; week++ {
		if err := ctx.Err(); err != nil {
			return series, err
		}
		clock.SetTime(wildnet.At(week))
		res, err := sc.SweepContext(ctx, cfg.Order, cfg.Seed+uint32(week), cfg.Blacklist)
		if err != nil {
			return series, err
		}
		obs := WeekObservation{
			Week:      week,
			Total:     res.Total(),
			ByRCode:   res.ByRCode,
			ByCountry: map[string]int{},
			ByRIR:     map[geodb.RIR]int{},
		}
		for _, r := range res.Responders {
			country, rir := loc(r.Addr)
			obs.ByCountry[country]++
			obs.ByRIR[rir]++
		}
		if retain[week] {
			obs.Responders = res.Responders
		}
		series.Weeks = append(series.Weeks, obs)
	}
	return series, nil
}

func TestWeeklySeriesDeclines(t *testing.T) {
	r := newRig(t, 17)
	defer r.tr.Close()
	tracker := NewTracker(r.locator(), []int{0, 7})
	err := StreamWeekly(context.Background(), r.sc, r.tr, StudyConfig{
		Order: 17, Seed: 11, Weeks: 8, Blacklist: r.w.ScanBlacklist(),
	}, func(_ context.Context, d EpochDelta) error {
		_, err := tracker.Apply(d)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	series := tracker.Series()
	if len(series.Weeks) != 8 {
		t.Fatalf("weeks = %d", len(series.Weeks))
	}
	if series.First().Responders == nil || series.Last().Responders == nil {
		t.Error("retained responder lists missing")
	}
	for _, w := range series.Weeks {
		if w.ByRCode[dnswire.RCodeNoError] <= w.ByRCode[dnswire.RCodeRefused] {
			t.Errorf("week %d: NOERROR not dominant: %v", w.Week, w.ByRCode)
		}
	}
}

func TestCountryFluctuationShape(t *testing.T) {
	r := newRig(t, 19)
	defer r.tr.Close()
	// Two scans: week 0 and week 55 (the table compares endpoints).
	series := &Series{}
	for _, week := range []int{0, 55} {
		r.tr.SetTime(wildnet.At(week))
		res, err := r.sc.SweepContext(context.Background(), 19, uint32(100+week), r.w.ScanBlacklist())
		if err != nil {
			t.Fatal(err)
		}
		obs := WeekObservation{Week: week, Total: res.Total(),
			ByRCode: res.ByRCode, ByCountry: map[string]int{}, ByRIR: map[geodb.RIR]int{}}
		loc := r.locator()
		for _, resp := range res.Responders {
			c, rir := loc(resp.Addr)
			obs.ByCountry[c]++
			obs.ByRIR[rir]++
		}
		series.Weeks = append(series.Weeks, obs)
	}
	rows := series.CountryFluctuation(10)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// US must lead the table, as in Table 1 (ignoring the residual
	// bucket which models "all other countries").
	top := rows[0].Key
	if top == "XO" {
		top = rows[1].Key
	}
	if top != "US" {
		t.Errorf("top country = %s, want US", top)
	}
	// Overall decline: most Top-10 countries shrink.
	declining := 0
	for _, row := range rows {
		if row.Fluctuation < 0 {
			declining++
		}
	}
	if declining < 6 {
		t.Errorf("only %d/10 countries declining", declining)
	}
	// RIR table covers all five registries.
	rirRows := series.RIRFluctuation()
	if len(rirRows) != 5 {
		t.Errorf("RIR rows = %d", len(rirRows))
	}
	for _, row := range rirRows {
		if row.Start == 0 {
			t.Errorf("registry %s has no responders", row.Key)
		}
	}
}

func TestCohortStudyMatchesFigure2(t *testing.T) {
	r := newRig(t, 17)
	defer r.tr.Close()
	r.tr.SetTime(wildnet.At(0))
	res, err := r.sc.SweepContext(context.Background(), 17, 3, r.w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	var cohort []uint32
	for _, resp := range res.Responders {
		cohort = append(cohort, resp.Addr)
	}
	trusted := r.w.RoleAddr(wildnet.RoleTrustedDNS, 0)
	study, err := RunCohort(context.Background(), r.sc, r.tr, cohort, 10, trusted)
	if err != nil {
		t.Fatal(err)
	}
	if study.Day1Survival > 0.62 || study.Day1Survival < 0.40 {
		t.Errorf("day-1 survival = %.2f, want ≈ 0.55 (>40%% gone within a day)", study.Day1Survival)
	}
	if s := study.SurvivalByWeek[1]; s < 0.38 || s > 0.58 {
		t.Errorf("week-1 survival = %.2f, want ≈ 0.48 (52.2%% disappear)", s)
	}
	// Monotone decline.
	for k := 1; k < len(study.SurvivalByWeek); k++ {
		if study.SurvivalByWeek[k] > study.SurvivalByWeek[k-1]+1e-9 {
			t.Errorf("survival increased at week %d", k)
		}
	}
	// Dynamic rDNS share of one-day churners ≈ 67.4%.
	if study.RDNSCount == 0 {
		t.Fatal("no rDNS records for churners")
	}
	if study.DynamicRDNSShare < 0.55 || study.DynamicRDNSShare > 0.80 {
		t.Errorf("dynamic rDNS share = %.2f, want ≈ 0.674", study.DynamicRDNSShare)
	}
}

func TestClassifyVanished(t *testing.T) {
	mk := func(addrs ...uint32) []scanner.Responder {
		out := make([]scanner.Responder, len(addrs))
		for i, a := range addrs {
			out[i] = scanner.Responder{Addr: a, Source: a}
		}
		return out
	}
	asOf := func(u uint32) (uint32, string) { return u >> 8, "as" } // /24-as-AS toy mapping
	first := mk(0x0100, 0x0101, 0x0102, 0x0200, 0x0201, 0x0300, 0x0400)
	last := mk(0x0400) // AS 4 survived
	secondary := map[uint32]bool{0x0100: true}
	got := ClassifyVanished(first, last, secondary, asOf, 2, 3)
	if len(got) != 2 {
		t.Fatalf("vanished networks = %d, want 2 (AS 1 and AS 2)", len(got))
	}
	reasons := map[uint32]string{}
	for _, v := range got {
		reasons[v.ASN] = v.Reason
	}
	if reasons[1] != "blocks-scanner" {
		t.Errorf("AS1 reason = %s", reasons[1])
	}
	if reasons[2] != "shutdown" {
		t.Errorf("AS2 reason = %s", reasons[2])
	}
}

func TestSurvivorConcentration(t *testing.T) {
	c := &CohortStudy{Survivors: []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	// Addresses 1-5 in AS 100, 6-7 in AS 200, 8 in AS 300, 9-10 singles.
	asOf := func(u uint32) uint32 {
		switch {
		case u <= 5:
			return 100
		case u <= 7:
			return 200
		case u == 8:
			return 300
		default:
			return 1000 + u
		}
	}
	c.ConcentrateSurvivors(asOf)
	if c.TopSurvivorNetworks != 0.8 {
		t.Errorf("top-3 share = %f, want 0.8", c.TopSurvivorNetworks)
	}
	empty := &CohortStudy{}
	empty.ConcentrateSurvivors(asOf) // must not divide by zero
	if empty.TopSurvivorNetworks != 0 {
		t.Error("empty cohort produced a share")
	}
}

func TestREFUSEDCountStaysFlat(t *testing.T) {
	r := newRig(t, 17)
	defer r.tr.Close()
	counts := []int{}
	for _, week := range []int{0, 27, 55} {
		r.tr.SetTime(wildnet.At(week))
		res, err := r.sc.SweepContext(context.Background(), 17, uint32(500+week), r.w.ScanBlacklist())
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.ByRCode[dnswire.RCodeRefused])
	}
	// Figure 1: the REFUSED population stays flat while NOERROR declines.
	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo == 0 || float64(hi)/float64(lo) > 1.5 {
		t.Errorf("REFUSED counts %v not flat", counts)
	}
}
