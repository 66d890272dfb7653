package cli

import (
	"context"
	"errors"
	"io"
	"os"
	"testing"

	"goingwild/internal/core"
	"goingwild/internal/pipeline"
)

// TestSectionedAttributesDegradation pins where an absorbed best-effort
// failure is recorded: a section whose stage degrades still prints, the
// run closes with a "Degraded stages" block naming that stage and its
// error, and the clean section's stage is not in it. A run that dies in
// its second section leaves the first one printed.
func TestSectionedAttributesDegradation(t *testing.T) {
	errDied := errors.New("killed here")
	table := func(r *Report, die bool) []Section {
		return []Section{
			{Name: "shaky", Blocks: []Block{{
				Needs: func() {
					r.Plan.Add(pipeline.Stage{
						Name:   "banner-grab",
						Policy: pipeline.BestEffort,
						Run: func(context.Context) ([]pipeline.Count, error) {
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
	// run renders the table with stdout captured.
	run := func(die bool) (string, []core.DegradedStage, error) {
		t.Helper()
		study, err := core.NewStudy(core.DefaultConfig(14))
		if err != nil {
			t.Fatal(err)
		}
		defer study.Close()
		rd, wr, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = wr
		var r Report
		(&Flags{prog: "test"}).Start(&r, study, 3)
		Sectioned(&r, table(&r, die))
		err = r.Plan.Run(context.Background())
		os.Stdout = stdout
		wr.Close()
		out, rerr := io.ReadAll(rd)
		rd.Close()
		if rerr != nil {
			t.Fatal(rerr)
		}
		return string(out), study.Degraded, err
	}

	out, degraded, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	const want = "shaky section\nsolid section\n" +
		"Degraded stages (best-effort failures absorbed):\n" +
		"  banner-grab                connection reset\n\n"
	if out != want {
		t.Errorf("the run printed\n%q\nwant\n%q", out, want)
	}
	if len(degraded) != 1 || degraded[0].Stage != "banner-grab" {
		t.Errorf("Study.Degraded = %+v, want the banner-grab entry alone", degraded)
	}

	partial, _, err := run(true)
	if !errors.Is(err, errDied) {
		t.Fatalf("dying run: err = %v, want %v", err, errDied)
	}
	if partial != "shaky section\n" {
		t.Errorf("dying run printed %q, want the first section only", partial)
	}
}
