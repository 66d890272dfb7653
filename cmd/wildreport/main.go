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
//	wildreport -order 18 -shard 0/4 -shard-out s0.json   # one census shard, for wildmerge
//	wildreport -order 20 -progress            # stage events and live per-week churn on stderr
//	wildreport -order 16 -chaos hostile       # run under injected faults
//	wildreport -order 20 -checkpoint run.ckpt # crash-safe; resume with -resume
//
// With -checkpoint, every completed report section is journaled and the
// weekly series commits each finished week; a killed run restarted with
// -resume re-sweeps the week or census it was in and produces stdout
// byte-identical to an uninterrupted run. The first SIGINT checkpoints
// at the next week commit or section boundary and exits 3; a second
// aborts hard.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"goingwild/internal/cli"
	"goingwild/internal/core"
	"goingwild/internal/dataset"
	"goingwild/internal/shardio"
)

func main() {
	f := cli.Register("wildreport", 18)
	f.RegisterRun(true)
	var (
		r         cli.Report
		weeks     = flag.Int("weeks", 55, "weekly scans")
		week      = flag.Int("week", 50, "week for point-in-time experiments")
		exps      = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(cli.ExpNames(sections(&r, "")), ",")+" (census and verify are not part of all)")
		markdown  = flag.Bool("markdown", false, "emit the markdown comparison table of the -exp experiments only")
		export    = flag.String("export", "", "directory to write the -week census artifact (sweep.json) and domain tuples (tuples.jsonl) into")
		shardSpec = flag.String("shard", "", "run only census shard i/M of the -week sweep and exit (e.g. -shard 0/4); requires -shard-out")
		shardOut  = flag.String("shard-out", "", "write the -shard census artifact (JSON) to this file, for cmd/wildmerge")
	)
	f.Parse()
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
	shard, of := 0, 0
	if *shardSpec != "" {
		if shard, of, err = parseShard(*shardSpec); err != nil {
			f.Usage(err)
		}
	}
	ctx, runner, release := f.Context(context.Background(), fmt.Sprintf(
		"wildreport order=%d seed=%#x weeks=%d exp=%s week=%d chaos=%s export=%s",
		f.Order, f.Seed, *weeks, *exps, *week, f.Chaos, *export))
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

	// -shard i/M is the out-of-process sharding mode: run exactly one
	// census shard of the -week sweep, write its artifact, and exit.
	// cmd/wildmerge recombines the M artifacts into the unsharded census.
	if *shardSpec != "" {
		if err := runShard(ctx, study, *week, shard, of, *shardOut); err != nil {
			f.Fatal(err)
		}
		return
	}

	// One table, one plan: text mode renders every selected section as
	// its stages finish, -markdown reads the same selection by its
	// comparison column. Under -checkpoint every section journals its
	// output; a resume replays finished sections and re-runs only what the
	// rest still need (every experiment re-seats the world clock before
	// touching the network, so section-granularity replay is exact).
	f.Start(&r, study, runner, *week)
	if *markdown {
		cli.Markdown(&r, table)
	} else {
		cli.Sectioned(&r, table)
	}
	if err := r.Plan.Run(ctx); err != nil {
		f.Fatal(err)
	}
}

// exclusive are the flag pairs of two modes that cannot run together: the
// second flag would be silently ignored, or — under -checkpoint — the run
// would only feign crash safety (a shard or a markdown table is one
// atomic write at the very end, with nothing to journal).
var exclusive = [][2]string{
	{"checkpoint", "shard"}, {"checkpoint", "markdown"}, {"markdown", "shard"},
	{"export", "shard"}, {"exp", "shard"}, {"export", "markdown"},
}

// checkModes refuses a command line whose given flags belong to modes
// that exclude each other.
func checkModes(given map[string]bool) error {
	if given["shard"] != given["shard-out"] {
		return errors.New("-shard and -shard-out go together")
	}
	for _, p := range exclusive {
		if given[p[0]] && given[p[1]] {
			return fmt.Errorf("-%s and -%s are mutually exclusive", p[0], p[1])
		}
	}
	return nil
}

// parseShard parses a -shard value, which is exactly i/M with 0 ≤ i < M.
func parseShard(spec string) (shard, of int, err error) {
	i, m, ok := strings.Cut(spec, "/")
	shard, err1 := strconv.Atoi(i)
	of, err2 := strconv.Atoi(m)
	if !ok || err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -shard %q, want i/M (e.g. 0/4)", spec)
	}
	if of < 1 || shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("-shard %d/%d out of range", shard, of)
	}
	return shard, of, nil
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
		// census is not part of "all": it exists for the sharding workflow
		// (its output is what wildmerge must reproduce byte-for-byte).
		{Name: "census", Explicit: true, Blocks: []cli.Block{{
			Names: []string{"census"},
			Needs: func() { r.Census() },
			Render: func(w io.Writer) error {
				_, err := fmt.Fprint(w, shardio.RenderCensus(r.Census().Sweep))
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
		r.Degraded(),
	}
}

// runShard executes census shard i/M of the week's sweep and writes its
// artifact for cmd/wildmerge.
func runShard(ctx context.Context, study *core.Study, week, shard, of int, out string) error {
	res, err := study.SweepShardAt(ctx, week, shard, of)
	if err != nil {
		return err
	}
	cfg := study.Cfg
	prov := shardio.Provenance{Order: cfg.Order, Seed: cfg.Seed, ScanSeed: cfg.ScanSeed, Week: week}
	if err := shardio.WriteFile(out, shardio.FromSweep(prov, shard, of, res)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wildreport: shard %d/%d probed %d targets, %d responders -> %s\n",
		shard, of, res.Probed, res.Total(), out)
	return nil
}

// exportDatasets writes the week's census as the unsharded artifact
// wildmerge reads (sweep.json) and the domain scan's tuples as JSONL.
func exportDatasets(dir string, cfg core.Config, census *core.Census, res *core.DomainStudyResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prov := shardio.Provenance{Order: cfg.Order, Seed: cfg.Seed, ScanSeed: cfg.ScanSeed, Week: census.Week}
	if err := shardio.WriteFile(filepath.Join(dir, "sweep.json"), shardio.FromSweep(prov, 0, 1, census.Sweep)); err != nil {
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
