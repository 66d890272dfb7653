// Command wildreport regenerates every table and figure of the paper and
// emits the paper-vs-measured comparison record (the data behind
// EXPERIMENTS.md).
//
// Usage:
//
//	wildreport -order 18 -weeks 55            # full run, text output
//	wildreport -order 18 -markdown            # markdown comparison table
//	wildreport -order 20 -progress            # stage events and live per-week churn on stderr
//	wildreport -order 16 -chaos hostile       # run under injected faults
//	wildreport -order 20 -checkpoint run.ckpt # crash-safe; resume with -resume
//
// With -checkpoint, every completed report section is journaled and the
// weekly series checkpoints per committed epoch (and mid-sweep at scan
// rendezvous); a killed run restarted with -resume produces stdout
// byte-identical to an uninterrupted run. The first SIGINT checkpoints
// at the next safe point and exits 3; a second aborts hard.
package main

import (
	"context"
	"flag"
	"fmt"

	"goingwild/internal/cli"
	"goingwild/internal/core"
)

func main() {
	f := cli.Register("wildreport", 18)
	f.RegisterRun()
	var (
		weeks    = flag.Int("weeks", 55, "weekly scans")
		week     = flag.Int("week", 50, "week for point-in-time experiments")
		markdown = flag.Bool("markdown", false, "emit the markdown comparison table only")
	)
	f.Parse()
	if f.Checkpoint != "" && *markdown {
		// The markdown table is one atomic render at the very end; there
		// is no incremental output to journal, so the combination would
		// only feign crash safety.
		f.Fatal(fmt.Errorf("-checkpoint and -markdown are mutually exclusive"))
	}
	ctx, runner, release := f.Context(context.Background(), fmt.Sprintf(
		"wildreport order=%d seed=%#x weeks=%d week=%d chaos=%s",
		f.Order, f.Seed, *weeks, *week, f.Chaos))
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

	// One table, one plan: text mode renders every section as its stages
	// finish, -markdown reads the same table by its comparison column.
	// Under -checkpoint every section journals its output; a resume
	// replays finished sections and re-runs only what the rest still need
	// (every experiment re-seats the world clock before touching the
	// network, so section-granularity replay is exact).
	var r cli.Report
	f.Start(&r, study, runner, *week)
	table := []cli.Section{
		{Name: "series", Blocks: []cli.Block{r.Figure1(), r.Table1(), r.Table2()}},
		cli.Of(r.Table3(false)),
		cli.Of(r.Table4()),
		cli.Of(r.Figure2(cfg.Weeks, true)),
		cli.Of(r.Utilization()),
		{Name: "domains", Blocks: r.DomainBlocks()},
		cli.Of(r.DNSSEC("wikileaks.org")),
		cli.Of(r.Amplification()),
		cli.Of(r.Popularity()),
		cli.Of(r.Netalyzr(400)),
		r.Degraded(),
	}
	if *markdown {
		cli.Markdown(&r, table)
	} else {
		cli.Sectioned(&r, table)
	}
	if err := r.Plan.Run(ctx); err != nil {
		f.Fatal(err)
	}
}
