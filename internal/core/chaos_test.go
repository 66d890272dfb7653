package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"goingwild/internal/wildnet"
)

// chaosTolerance is the allowed |measured − planted| / planted census
// deviation per profile. The budgets come from the fault parameters:
// clean has no sweep retries, so its double-sided 0.2% base loss costs
// up to ~0.4%; the fault profiles run 2 retransmission rounds, leaving
// mostly the persistent burst windows (frozen for the duration of a
// fixed-time scan) and the tail of the rate-limit admission draws.
var chaosTolerance = map[string]float64{
	"clean":   0.0075,
	"lossy":   0.0100,
	"hostile": 0.0250,
	"flaky":   0.0150,
}

// TestChaosMatrix sweeps an order-16 world under every chaos profile and
// holds the census to the planted ground truth: World.CountRespondingAt
// counts exactly what a lossless sweep would see, so the tolerance covers
// only loss-like faults. That the report is the same bytes under each
// profile across runs, GOMAXPROCS and side channels is cmd/wildreport's
// TestEquivalence.
func TestChaosMatrix(t *testing.T) {
	const week = 3
	for _, profile := range wildnet.ChaosProfileNames() {
		t.Run(profile, func(t *testing.T) {
			cfg, err := ChaosProfileConfig(16, profile)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			res, err := s.SweepAtContext(context.Background(), week)
			if err != nil {
				t.Fatal(err)
			}
			truth := s.World.CountRespondingAt(wildnet.VantagePrimary, wildnet.At(week), s.World.ScanBlacklist().ContainsU32)
			if truth == 0 {
				t.Fatal("planted population is empty; the tolerance check is vacuous")
			}
			if miss := float64(truth-res.Total()) / float64(truth); math.Abs(miss) > chaosTolerance[profile] {
				t.Errorf("sweep %d vs planted %d: miss share %.4f exceeds %.4f",
					res.Total(), truth, miss, chaosTolerance[profile])
			}
		})
	}
}

// TestDomainStudyReportDeterministicUnderFaults pins classification-level
// determinism under a chaos profile: the labels of each tuple, which the
// report's stdout does not print. The regression it guards: with faults on, every probe advances the transport's
// retransmission counter, so any map-order probe sequence — here the
// country-injection probes issued while labeling tuples — makes label
// shares drift between identical runs.
func TestDomainStudyReportDeterministicUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Figure-3 chain twice")
	}
	run := func() string {
		cfg, err := ChaosProfileConfig(14, "hostile")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Weeks = 4
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		p := s.NewPlan()
		out := p.DomainStudy(3, nil)
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		res := out.V
		// fmt sorts map keys, so this is a canonical dump of the
		// label matrix and the per-tuple labels.
		return fmt.Sprintf("%+v\n%+v\n%+v", res.Report.Table5.Cells, res.Report.TupleLabels, res.Report.ModClusterSizes)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("classification report differs between identical hostile runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}
