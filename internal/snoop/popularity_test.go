package snoop

import (
	"context"
	"slices"
	"testing"
	"time"

	"goingwild/internal/domains"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

func TestPopularityRecoversPlantedGaps(t *testing.T) {
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer tr.Close()
	sc := scanner.New(tr, scanner.Options{Workers: 4, SettleDelay: time.Millisecond})
	cfg := DefaultPopularityConfig()
	tldIdx := slices.Index(domains.SnoopedTLDs, cfg.TLD)
	tr.SetTime(wildnet.Time{Week: cfg.Week})
	sweep, err := sc.SweepContext(context.Background(), 17, 77, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	estimates, err := EstimatePopularity(context.Background(), sc, tr, resolvers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(estimates) < 20 {
		t.Fatalf("only %d popularity estimates", len(estimates))
	}
	// Estimates for slow in-use resolvers must land near the planted
	// re-caching gap; the probing resolution is one minute.
	checked, close := 0, 0
	for _, est := range estimates {
		planted, ok := w.PlantedSnoopGap(est.Addr, wildnet.Time{Week: cfg.Week, Day: 2}, tldIdx)
		if !ok {
			continue
		}
		checked++
		diff := est.GapSeconds - planted
		if diff < 0 {
			diff = -diff
		}
		if diff <= 90 { // one probe interval + rounding
			close++
		}
	}
	if checked == 0 {
		t.Fatal("no slow in-use resolvers among estimates")
	}
	if float64(close)/float64(checked) < 0.8 {
		t.Errorf("only %d/%d gap estimates within 90s of ground truth", close, checked)
	}
	// Popularity ordering: fast refreshers (gap ≈ 0) must report higher
	// request rates than slow ones.
	var fastRate, slowRate float64
	var nFast, nSlow int
	for _, est := range estimates {
		if _, ok := w.PlantedSnoopGap(est.Addr, wildnet.Time{Week: cfg.Week, Day: 2}, tldIdx); ok {
			slowRate += est.RequestsPerHour
			nSlow++
		} else if est.GapSeconds <= 60 {
			fastRate += est.RequestsPerHour
			nFast++
		}
	}
	if nFast > 0 && nSlow > 0 && fastRate/float64(nFast) <= slowRate/float64(nSlow) {
		t.Errorf("popularity ordering broken: fast %.1f/h vs slow %.1f/h",
			fastRate/float64(nFast), slowRate/float64(nSlow))
	}
}
