// Command goingwild runs the full reproduction pipeline against a
// simulated IPv4 Internet and prints the paper's tables and figures.
//
// Usage:
//
//	goingwild -order 18 -exp all
//	goingwild -order 20 -exp fig1,table3,table5 -weeks 55
//	goingwild -order 20 -exp all -progress
//	goingwild -order 20 -exp all -checkpoint run.ckpt   # crash-safe
//	goingwild -order 20 -exp all -checkpoint run.ckpt -resume
//
// With -checkpoint, progress is saved crash-atomically after every
// completed output section, every committed weekly epoch, and every
// sweep rendezvous; a killed run restarted with -resume replays the
// finished sections byte-for-byte and picks up mid-scan, so the final
// stdout is identical to an uninterrupted run. The first SIGINT drains
// to the next safe point, checkpoints, and exits with status 3; a
// second SIGINT aborts hard.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"goingwild/internal/cli"
	"goingwild/internal/core"
	"goingwild/internal/dataset"
	"goingwild/internal/shardio"
)

func main() {
	f := cli.Register("goingwild", 18)
	f.RegisterRun()
	flag.Lookup("order").Usage = "address-space width in bits (14–32)"
	var (
		weeks     = flag.Int("weeks", 12, "weekly scans for the longitudinal study")
		r         cli.Report
		exps      = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(cli.ExpNames(sections(&r, "")), ",")+" (census is not part of all)")
		week      = flag.Int("week", 50, "study week for the point-in-time experiments")
		export    = flag.String("export", "", "directory to export JSONL datasets into")
		shardSpec = flag.String("shard", "", "run only census shard i/M of the -week sweep and exit (e.g. -shard 0/4); requires -shard-out")
		shardOut  = flag.String("shard-out", "", "write the -shard census artifact (JSON) to this file, for cmd/wildmerge")
	)
	f.Parse()
	if f.Checkpoint != "" && *shardSpec != "" {
		f.Fatal(fmt.Errorf("-checkpoint does not apply to -shard runs; checkpoint the merged run instead"))
	}
	cfg := f.StudyConfig()
	cfg.Weeks = *weeks
	// -exp is a filter over the section table; a name the table does not
	// know is a usage error, not an empty report.
	table, err := cli.Select(sections(&r, *export), *exps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "goingwild:", err)
		os.Exit(2)
	}
	ctx, runner, release := f.Context(context.Background(), fmt.Sprintf(
		"goingwild order=%d seed=%#x weeks=%d exp=%s week=%d chaos=%s export=%s",
		f.Order, f.Seed, *weeks, *exps, *week, f.Chaos, *export))
	defer release()

	study, err := core.NewStudy(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer study.Close()
	defer f.Observe()()
	// Stage events go to stderr so stdout stays byte-identical with and
	// without -progress (the observer is a side channel only).
	study.Observer = f.StageProgress()

	// -shard i/M is the out-of-process sharding mode: run exactly one
	// census shard of the -week sweep, write its artifact, and exit.
	// cmd/wildmerge recombines the M artifacts into the unsharded census.
	if *shardSpec != "" {
		if err := runShard(ctx, study, *week, *shardSpec, *shardOut); err != nil {
			f.Fatal(err)
		}
		return
	}

	f.Start(&r, study, runner, *week)
	cli.Sectioned(&r, table)
	if err := r.Plan.Run(ctx); err != nil {
		f.Fatal(err)
	}
}

// sections is goingwild's table over r, in print order. exportDir, when
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
				fmt.Fprintf(w, "datasets exported to %s\n\n", exportDir)
				return nil
			},
		}}, domains.Blocks...)
	}
	return []cli.Section{
		// census is not part of "all": it exists for the sharding workflow
		// (its output is what wildmerge must reproduce byte-for-byte).
		{Name: "census", Explicit: true, Blocks: []cli.Block{{
			Names: []string{"census"},
			Needs: func() { r.Census() },
			Render: func(w io.Writer) error {
				fmt.Fprint(w, shardio.RenderCensus(r.Census().Sweep))
				return nil
			},
		}}},
		cli.Of(r.Figure1()),
		cli.Of(r.Table1()),
		cli.Of(r.Table2()),
		cli.Of(r.Table3(true)),
		cli.Of(r.Table4()),
		cli.Of(r.Figure2(12, false)),
		cli.Of(r.Utilization()),
		cli.Of(r.Verification()),
		cli.Of(r.Amplification()),
		{Name: "dnssec", Blocks: []cli.Block{r.DNSSEC("wikileaks.org"), r.DNSSEC("facebook.com")}},
		cli.Of(r.Popularity()),
		cli.Of(r.Netalyzr(500)),
		domains,
		r.Degraded(),
	}
}

// runShard executes census shard i/M of the week's sweep and writes its
// artifact for cmd/wildmerge.
func runShard(ctx context.Context, study *core.Study, week int, spec, out string) error {
	var shard, of int
	if n, err := fmt.Sscanf(spec, "%d/%d", &shard, &of); n != 2 || err != nil {
		return fmt.Errorf("bad -shard %q, want i/M (e.g. 0/4)", spec)
	}
	if of < 1 || shard < 0 || shard >= of {
		return fmt.Errorf("-shard %d/%d out of range", shard, of)
	}
	if out == "" {
		return fmt.Errorf("-shard requires -shard-out")
	}
	res, err := study.SweepShardAt(ctx, week, shard, of)
	if err != nil {
		return err
	}
	cfg := study.Cfg
	prov := shardio.Provenance{Order: cfg.Order, Seed: cfg.Seed, ScanSeed: cfg.ScanSeed, Week: week}
	if err := shardio.WriteFile(out, shardio.FromSweep(prov, shard, of, res)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "goingwild: shard %d/%d probed %d targets, %d responders -> %s\n",
		shard, of, res.Probed, res.Total(), out)
	return nil
}

// exportDatasets writes the week's sweep and tuple datasets as JSONL.
func exportDatasets(dir string, cfg core.Config, census *core.Census, res *core.DomainStudyResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	manifest, err := os.Create(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	defer manifest.Close()
	if err := dataset.WriteManifest(manifest, dataset.Manifest{
		Paper:     "Going Wild: Large-Scale Classification of Open DNS Resolvers (IMC 2015)",
		Order:     cfg.Order,
		Seed:      cfg.Seed,
		ScanSeed:  cfg.ScanSeed,
		Week:      census.Week,
		Generator: "goingwild",
	}); err != nil {
		return err
	}
	sweepFile, err := os.Create(filepath.Join(dir, "sweep.jsonl"))
	if err != nil {
		return err
	}
	defer sweepFile.Close()
	if err := dataset.WriteSweep(sweepFile, census.Sweep); err != nil {
		return err
	}
	tupleFile, err := os.Create(filepath.Join(dir, "tuples.jsonl"))
	if err != nil {
		return err
	}
	defer tupleFile.Close()
	return dataset.WriteTuples(tupleFile, res.Scan, res.Pre)
}
