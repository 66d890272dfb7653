package cli

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"goingwild/internal/checkpoint"
	"goingwild/internal/core"
	"goingwild/internal/pipeline"
)

// TestSectionedAttributesDegradation pins where an absorbed best-effort
// failure is recorded and that a resume keeps it. A checkpointed run
// whose first section degrades dies in its second; the resumed run
// replays the first section from the journal — its stages are not even
// added — and must still close with the "Degraded stages" block of a run
// that was never interrupted.
func TestSectionedAttributesDegradation(t *testing.T) {
	errDied := errors.New("killed here")
	grabs := 0
	table := func(r *Report, die bool) []Section {
		return []Section{
			{Name: "shaky", Blocks: []Block{{
				Needs: func() {
					r.Plan.Add(pipeline.Stage{
						Name:   "banner-grab",
						Policy: pipeline.BestEffort,
						Run: func(context.Context) ([]pipeline.Count, error) {
							grabs++
							return nil, errors.New("connection reset")
						},
					})
				},
				Render: func(w io.Writer) error { _, err := io.WriteString(w, "shaky section\n"); return err },
			}}},
			{Name: "solid", Blocks: []Block{{
				Needs: func() {
					r.Plan.Add(pipeline.Stage{
						Name: "solid-work",
						Run: func(context.Context) ([]pipeline.Count, error) {
							if die {
								return nil, errDied
							}
							return nil, nil
						},
					})
				},
				Render: func(w io.Writer) error { _, err := io.WriteString(w, "solid section\n"); return err },
			}}},
			r.Degraded(),
		}
	}
	run := func(dir string, resume, die bool) (string, *checkpoint.Runner, error) {
		t.Helper()
		study, err := core.NewStudy(core.DefaultConfig(14))
		if err != nil {
			t.Fatal(err)
		}
		defer study.Close()
		var stdout bytes.Buffer
		runner, err := checkpoint.OpenRun(dir, resume, "test", &stdout, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var r Report
		(&Flags{prog: "test"}).Start(&r, study, runner, 3)
		Sectioned(&r, table(&r, die))
		err = r.Plan.Run(context.Background())
		return stdout.String(), runner, err
	}

	whole, _, err := run(t.TempDir(), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(whole, "Degraded stages") || !strings.Contains(whole, "banner-grab") || !strings.Contains(whole, "connection reset") {
		t.Fatalf("the uninterrupted run does not report its degraded stage:\n%s", whole)
	}

	dir := t.TempDir()
	partial, _, err := run(dir, false, true)
	if !errors.Is(err, errDied) {
		t.Fatalf("interrupted run: err = %v, want %v", err, errDied)
	}
	if partial != "shaky section\n" {
		t.Fatalf("interrupted run printed %q, want the first section only", partial)
	}
	grabs = 0
	resumed, runner, err := run(dir, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != whole {
		t.Errorf("resumed run differs from the uninterrupted one:\n--- uninterrupted\n%s--- resumed\n%s", whole, resumed)
	}
	if grabs != 0 {
		t.Errorf("the journaled section's stage ran %d times on resume, want 0", grabs)
	}
	var recs []core.DegradedStage
	if ok, err := runner.Fetch("degraded:shaky", &recs); err != nil || !ok || len(recs) != 1 || recs[0].Stage != "banner-grab" {
		t.Errorf("degraded:shaky = %v (present %v, err %v), want the banner-grab entry", recs, ok, err)
	}
	if ok, _ := runner.Fetch("degraded:solid", &recs); ok {
		t.Error("the clean section was charged with a degradation")
	}
}
