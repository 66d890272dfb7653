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

// TestSectionedPrintsFinishedSections pins what a sectioned report
// prints: a clean run prints every section in table order, and a run
// that dies in its second section leaves the first one printed and
// nothing after it.
func TestSectionedPrintsFinishedSections(t *testing.T) {
	errDied := errors.New("killed here")
	section := func(r *Report, name string, die bool) Section {
		return Section{Name: name, Blocks: []Block{{
			Needs: func() {
				r.Plan.Add(pipeline.Stage{
					Name: name + "-work",
					Run: func(context.Context) ([]pipeline.Count, error) {
						if die {
							return nil, errDied
						}
						return nil, nil
					},
				})
			},
			Render: func(w io.Writer) error { _, err := io.WriteString(w, name+" section\n"); return err },
		}}}
	}
	// run renders the table with stdout captured.
	run := func(die bool) (string, error) {
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
		Sectioned(&r, []Section{section(&r, "first", false), section(&r, "second", die)})
		err = r.Plan.Run(context.Background())
		os.Stdout = stdout
		wr.Close()
		out, rerr := io.ReadAll(rd)
		rd.Close()
		if rerr != nil {
			t.Fatal(rerr)
		}
		return string(out), err
	}

	out, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	if want := "first section\nsecond section\n"; out != want {
		t.Errorf("the run printed\n%q\nwant\n%q", out, want)
	}

	partial, err := run(true)
	if !errors.Is(err, errDied) {
		t.Fatalf("dying run: err = %v, want %v", err, errDied)
	}
	if partial != "first section\n" {
		t.Errorf("dying run printed %q, want the first section only", partial)
	}
}
