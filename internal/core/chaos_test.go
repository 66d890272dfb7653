package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
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

// TestChaosMatrix drives the full pipeline under every chaos profile at
// order 16 and asserts the robustness contract: no errors, census counts
// within tolerance of the planted ground truth, and byte-identical
// summaries across repeated runs and across a GOMAXPROCS change.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is a long test")
	}
	const order, week = 16, 3
	ctx := context.Background()
	for _, profile := range wildnet.ChaosProfileNames() {
		t.Run(profile, func(t *testing.T) {
			a, err := RunChaosPipeline(ctx, order, profile, week, nil)
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			if a.GroundTruth == 0 {
				t.Fatal("planted population is empty; the tolerance check is vacuous")
			}
			if miss := a.MissShare(); math.Abs(miss) > chaosTolerance[profile] {
				t.Errorf("sweep %d vs planted %d: miss share %.4f exceeds %.4f",
					a.SweepTotal, a.GroundTruth, miss, chaosTolerance[profile])
			}
			if profile == "clean" && len(a.Degraded) > 0 {
				t.Errorf("clean run degraded stages: %v", a.Degraded)
			}

			b, err := RunChaosPipeline(ctx, order, profile, week, nil)
			if err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if a.Render() != b.Render() {
				t.Errorf("summary not reproducible across runs:\n--- run 1\n%s--- run 2\n%s", a.Render(), b.Render())
			}

			// The determinism contract holds across scheduler shapes:
			// flip GOMAXPROCS and demand the same bytes.
			old := runtime.GOMAXPROCS(0)
			flipped := 1
			if old == 1 {
				flipped = 4
			}
			runtime.GOMAXPROCS(flipped)
			c, err := RunChaosPipeline(ctx, order, profile, week, nil)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("run at GOMAXPROCS=%d: %v", flipped, err)
			}
			if a.Render() != c.Render() {
				t.Errorf("summary diverges at GOMAXPROCS=%d:\n--- base\n%s--- flipped\n%s", flipped, a.Render(), c.Render())
			}
		})
	}
}

// TestDomainStudyReportDeterministicUnderFaults pins classification-level
// determinism under a chaos profile, which the matrix above (comparing
// stage counts and sweep totals) is too coarse to see. The regression it
// guards: with faults on, every probe advances the transport's
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
		res, err := s.RunDomainStudyContext(context.Background(), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		// fmt sorts map keys, so this is a canonical dump of the
		// label matrix and the per-tuple labels.
		return fmt.Sprintf("%+v\n%+v\n%+v", res.Report.Table5.Cells, res.Report.TupleLabels, res.Report.ModClusterSizes)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("classification report differs between identical hostile runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}
