// Command wildreport runs the reproduction pipeline against a simulated
// IPv4 Internet, prints every table and figure of the paper, and emits
// the paper-vs-measured comparison record (the data behind
// EXPERIMENTS.md).
//
// Usage:
//
//	wildreport -order 18 -weeks 55            # full run, text output
//	wildreport -order 18 -markdown            # markdown comparison table
//	wildreport -order 18 -exp fig1,table3     # only the named experiments
//	wildreport -order 18 -exp census          # the -week census alone
//	wildreport -order 18 -export out          # also write out/sweep.json and out/tuples.jsonl
//	wildreport -order 20 -progress            # stage events and live per-week churn on stderr
//	wildreport -order 16 -chaos hostile       # run under injected faults
//
// A run saves no progress: the longest recorded one, the order-22 record,
// takes about half a minute on a 2-core machine, so an interrupted run is
// run again. SIGINT cancels it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"goingwild/internal/cli"
	"goingwild/internal/core"
	"goingwild/internal/dataset"
	"goingwild/internal/dnswire"
	"goingwild/internal/scanner"
)

func main() {
	f := cli.Register("wildreport", 18)
	f.RegisterRun()
	var (
		r        cli.Report
		weeks    = flag.Int("weeks", 55, "weekly scans")
		week     = flag.Int("week", 50, "week for point-in-time experiments")
		exps     = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(cli.ExpNames(sections(&r, "")), ",")+" (census and verify are not part of all)")
		markdown = flag.Bool("markdown", false, "emit the markdown comparison table of the -exp experiments only")
		export   = flag.String("export", "", "directory to write the -week census artifact (sweep.json) and domain tuples (tuples.jsonl) into")
	)
	f.Parse()
	if *week < 0 {
		f.Usage(fmt.Errorf("-week %d: must be at least 0", *week))
	}
	given := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { given[fl.Name] = true })
	if err := checkModes(given); err != nil {
		f.Usage(err)
	}
	// -exp is a filter over the section table; a name the table does not
	// know is a usage error, not an empty report.
	table, err := cli.Select(sections(&r, *export), *exps)
	if err != nil {
		f.Usage(err)
	}
	ctx, release := f.Context(context.Background())
	defer release()

	cfg := f.StudyConfig()
	cfg.Weeks = *weeks
	study, err := core.NewStudy(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer study.Close()
	defer f.Observe()()
	// Progress goes to stderr: stdout stays byte-identical with and
	// without -progress (the observer is a side channel only).
	study.Observer = f.StageProgress()

	// One table, one plan: text mode renders every selected section as
	// its stages finish, -markdown reads the same selection by its
	// comparison column.
	f.Start(&r, study, *week)
	if *markdown {
		cli.Markdown(&r, table)
	} else {
		cli.Sectioned(&r, table)
	}
	if err := r.Plan.Run(ctx); err != nil {
		f.Fatal(err)
	}
}

// checkModes refuses a command line whose given flags belong to modes
// that exclude each other: -markdown prints only the comparison table,
// so an -export beside it would be silently ignored.
func checkModes(given map[string]bool) error {
	if given["export"] && given["markdown"] {
		return errors.New("-export and -markdown are mutually exclusive")
	}
	return nil
}

// sections is the report's table over r, in print order. exportDir, when
// set, puts the dataset export at the head of the domains section and so
// into every run.
func sections(r *cli.Report, exportDir string) []cli.Section {
	domains := cli.Section{Name: "domains", Blocks: r.DomainBlocks()}
	if exportDir != "" {
		domains.Blocks = append([]cli.Block{{
			Needs: func() { r.Census(); r.Domains() },
			Render: func(w io.Writer) error {
				if err := exportDatasets(exportDir, r.Study.Cfg, r.Census(), r.Domains().V); err != nil {
					return err
				}
				_, err := fmt.Fprintf(w, "datasets exported to %s\n\n", exportDir)
				return err
			},
		}}, domains.Blocks...)
	}
	verify := cli.Of(r.Verification())
	verify.Explicit = true
	return []cli.Section{
		// census is not part of "all": it is the -week sweep alone, the
		// summary of what -export writes as sweep.json.
		{Name: "census", Explicit: true, Blocks: []cli.Block{{
			Names: []string{"census"},
			Needs: func() { r.Census() },
			Render: func(w io.Writer) error {
				_, err := fmt.Fprint(w, renderCensus(r.Census().Sweep))
				return err
			},
		}}},
		{Name: "series", Blocks: []cli.Block{r.Figure1(), r.Table1(), r.Table2()}},
		cli.Of(r.Table3()),
		cli.Of(r.Table4()),
		cli.Of(r.Figure2()),
		cli.Of(r.Utilization()),
		verify,
		domains,
		cli.Of(r.DNSSEC()),
		cli.Of(r.Amplification()),
		cli.Of(r.Popularity()),
		cli.Of(r.Netalyzr()),
	}
}

// renderCensus renders one sweep as the census block of -exp census.
func renderCensus(res *scanner.SweepResult) string {
	out := "IPv4 scan census\n"
	out += fmt.Sprintf("  probed       %d\n", res.Probed)
	out += fmt.Sprintf("  responders   %d\n", res.Total())
	out += fmt.Sprintf("  noerror      %d\n", res.ByRCode[dnswire.RCodeNoError])
	out += fmt.Sprintf("  mis-sourced  %d\n", res.MisSourcedCount())
	rcodes := make([]int, 0, len(res.ByRCode))
	for rc := range res.ByRCode {
		rcodes = append(rcodes, int(rc))
	}
	sort.Ints(rcodes)
	for _, rc := range rcodes {
		out += fmt.Sprintf("    %-10s %d\n", dnswire.RCode(rc).String(), res.ByRCode[dnswire.RCode(rc)])
	}
	return out
}

// exportDatasets writes the week's census artifact (sweep.json) and the
// domain scan's tuples as JSONL.
func exportDatasets(dir string, cfg core.Config, census *core.Census, res *core.DomainStudyResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	art := dataset.FromSweep(cfg.Order, cfg.Seed, cfg.ScanSeed, census.Week, census.Sweep)
	if err := dataset.WriteFile(filepath.Join(dir, "sweep.json"), art); err != nil {
		return err
	}
	file, err := os.Create(filepath.Join(dir, "tuples.jsonl"))
	if err != nil {
		return err
	}
	if err := dataset.WriteTuples(file, res.Scan, res.Pre); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
