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

	"goingwild/internal/analysis"
	"goingwild/internal/checkpoint"
	"goingwild/internal/churn"
	"goingwild/internal/cli"
	"goingwild/internal/core"
	"goingwild/internal/dataset"
	"goingwild/internal/domains"
	"goingwild/internal/scanner"
	"goingwild/internal/shardio"
)

func main() {
	f := cli.Register("goingwild", 18)
	f.RegisterRun()
	flag.Lookup("order").Usage = "address-space width in bits (14–32)"
	var (
		weeks     = flag.Int("weeks", 12, "weekly scans for the longitudinal study")
		epochs    = flag.Int("epochs", 0, "stream the weekly series incrementally as N weekly epochs (implies -weeks N; 0 = batch); stdout is byte-identical either way")
		exps      = flag.String("exp", "all", "comma-separated experiments: census,fig1,table1,table2,table3,table4,fig2,util,verify,domains,fig4,cases,pipeline,amp,dnssec,popularity")
		week      = flag.Int("week", 50, "study week for the point-in-time experiments")
		export    = flag.String("export", "", "directory to export JSONL datasets into")
		shardSpec = flag.String("shard", "", "run only census shard i/M of the -week sweep and exit (e.g. -shard 0/4); requires -shard-out")
		shardOut  = flag.String("shard-out", "", "write the -shard census artifact (JSON) to this file, for cmd/wildmerge")
	)
	f.Parse()
	if f.Checkpoint != "" && *shardSpec != "" {
		f.Fatal(fmt.Errorf("-checkpoint does not apply to -shard runs; checkpoint the merged run instead"))
	}
	ctx, runner, release := f.Context(context.Background(), fmt.Sprintf(
		"goingwild order=%d seed=%#x weeks=%d epochs=%d exp=%s week=%d chaos=%s export=%s",
		f.Order, f.Seed, *weeks, *epochs, *exps, *week, f.Chaos, *export))
	defer release()

	cfg := f.StudyConfig()
	cfg.Weeks = *weeks
	if *epochs > 0 {
		cfg.Weeks = *epochs
	}
	study, err := core.NewStudy(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer study.Close()
	defer f.Observe()()
	// Stage events go to stderr so stdout stays byte-identical with and
	// without -progress (the observer is a side channel only).
	study.Observer = f.StageProgress()
	scale := analysis.Scale(study.World.ScaleFactor())

	// -shard i/M is the out-of-process sharding mode: run exactly one
	// census shard of the -week sweep, write its artifact, and exit.
	// cmd/wildmerge recombines the M artifacts into the unsharded census.
	if *shardSpec != "" {
		if err := runShard(ctx, study, *week, *shardSpec, *shardOut); err != nil {
			f.Fatal(err)
		}
		return
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := cli.Sectioned(runner, study)

	// The weekly series is shared by fig1/table1/table2 and computed once,
	// lazily, inside the first section that needs it. Under -checkpoint it
	// runs through the resumable epoch stream (byte-identical to the batch
	// path); a resume whose cursor already covers every week replays the
	// checkpointed tracker without scanning at all.
	var series *churn.Series
	getSeries := func() (*churn.Series, error) {
		if series != nil {
			return series, nil
		}
		var live func(core.EpochView)
		if f.Progress {
			live = func(v core.EpochView) {
				fmt.Fprint(os.Stderr, analysis.RenderEpochDelta(v.Obs, v.Delta, scale, v.Lag))
			}
		}
		var err error
		switch {
		case runner != nil:
			series, err = study.RunWeeklySeriesResumeContext(ctx, runner, live)
		case *epochs > 0:
			series, err = study.RunWeeklySeriesStreamContext(ctx, live)
		default:
			series, err = study.RunWeeklySeriesContext(ctx)
		}
		return series, err
	}

	// census is not part of "all": it exists for the sharding workflow
	// (its output is what wildmerge must reproduce byte-for-byte).
	if want["census"] {
		if err := run("census", func(w io.Writer) error {
			res, err := resumableSweep(ctx, study, runner, "census-sweep", *week)
			if err != nil {
				return err
			}
			fmt.Fprint(w, shardio.RenderCensus(res))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["fig1"] {
		if err := run("fig1", func(w io.Writer) error {
			s, err := getSeries()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderFigure1(s, scale))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["table1"] {
		if err := run("table1", func(w io.Writer) error {
			s, err := getSeries()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderTable1(s, scale, 10))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["table2"] {
		if err := run("table2", func(w io.Writer) error {
			s, err := getSeries()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderTable2(s, scale))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["table3"] {
		if err := run("table3", func(w io.Writer) error {
			survey, n, err := study.RunChaosContext(ctx, *week)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "CHAOS scan over %d resolvers\n", n)
			fmt.Fprintln(w, analysis.RenderTable3(survey, 10))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["table4"] {
		if err := run("table4", func(w io.Writer) error {
			survey, err := study.RunDevicesContext(ctx, *week)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderTable4(survey))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["fig2"] {
		if err := run("fig2", func(w io.Writer) error {
			cohort, err := study.RunCohortStudyContext(ctx, min(cfg.Weeks, 12))
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderFigure2(cohort))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["util"] {
		if err := run("util", func(w io.Writer) error {
			res, err := study.RunUtilizationContext(ctx, *week)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderUtilization(res))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["verify"] {
		if err := run("verify", func(w io.Writer) error {
			v, err := study.RunVerificationContext(ctx, *week)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Verification scan (§2.2): primary %d, secondary %d, only-secondary %d (missed NOERROR %.2f%%)\n\n",
				v.Primary, v.Secondary, v.OnlySecondary, 100*v.MissedNOERRORShare)
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["amp"] {
		if err := run("amp", func(w io.Writer) error {
			survey, n, err := study.RunAmplificationContext(ctx, *week, "chase.com")
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderAmplification(survey, n))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["dnssec"] {
		if err := run("dnssec", func(w io.Writer) error {
			for _, name := range []string{"wikileaks.org", "facebook.com"} {
				race, err := study.RunDNSSECRaceContext(ctx, *week, "CN", name)
				if err != nil {
					return err
				}
				fmt.Fprintln(w, analysis.RenderDNSSECRace(race))
			}
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["popularity"] {
		if err := run("popularity", func(w io.Writer) error {
			est, err := study.RunPopularityContext(ctx, *week)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderPopularity(est, 10))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["netalyzr"] {
		if err := run("netalyzr", func(w io.Writer) error {
			fmt.Fprintln(w, analysis.RenderNetalyzr(study.RunNetalyzr(*week, 500)))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	if all || want["domains"] || want["fig4"] || want["cases"] || want["table5"] || want["pipeline"] || *export != "" {
		if err := run("domains", func(w io.Writer) error {
			res, err := study.RunDomainStudyContext(ctx, *week, nil)
			if err != nil {
				return err
			}
			if *export != "" {
				if err := exportDatasets(ctx, *export, study, res, *week); err != nil {
					return err
				}
				fmt.Fprintf(w, "datasets exported to %s\n\n", *export)
			}
			if all || want["pipeline"] {
				fmt.Fprintln(w, "Processing chain (Figure 3):")
				for _, st := range res.StageTrace {
					fmt.Fprintf(w, "  %-26s %d\n", st.Stage, st.Count)
				}
				fmt.Fprintln(w)
			}
			if all || want["domains"] {
				fmt.Fprintln(w, analysis.RenderPrefilter(res.Pre))
			}
			if all || want["table5"] || want["domains"] {
				fmt.Fprintln(w, analysis.RenderTable5(res.Report.Table5, domains.AllCategories))
			}
			if all || want["fig4"] {
				fmt.Fprintln(w, analysis.RenderFigure4(res.Fig4))
			}
			if all || want["cases"] {
				fmt.Fprintln(w, analysis.RenderCaseStudies(&res.Report.Cases, scale))
			}
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	// A clean run prints nothing here, so stdout stays byte-identical.
	if err := run("degraded", func(w io.Writer) error {
		cli.PrintDegraded(w, study)
		return nil
	}); err != nil {
		f.Fatal(err)
	}
}

// resumableSweep runs the week's census sweep through the checkpoint
// store, so a killed run restarts from its last rendezvous instead of
// from scratch. Without a runner it is the plain sweep.
func resumableSweep(ctx context.Context, study *core.Study, runner *checkpoint.Runner, doc string, week int) (*scanner.SweepResult, error) {
	if runner == nil {
		return study.SweepAtContext(ctx, week)
	}
	rc, err := cli.SweepResume(runner, doc)
	if err != nil {
		return nil, err
	}
	res, err := study.SweepAtResumeContext(ctx, week, rc)
	if err != nil {
		return nil, err
	}
	// The sweep is folded into its section; the document's removal
	// reaches disk with the section's own save.
	runner.Drop(doc)
	return res, nil
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
func exportDatasets(ctx context.Context, dir string, study *core.Study, res *core.DomainStudyResult, week int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := study.Cfg
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
		Week:      week,
		Generator: "goingwild",
	}); err != nil {
		return err
	}
	sweep, err := study.SweepAtContext(ctx, week)
	if err != nil {
		return err
	}
	sweepFile, err := os.Create(filepath.Join(dir, "sweep.jsonl"))
	if err != nil {
		return err
	}
	defer sweepFile.Close()
	if err := dataset.WriteSweep(sweepFile, sweep); err != nil {
		return err
	}
	tupleFile, err := os.Create(filepath.Join(dir, "tuples.jsonl"))
	if err != nil {
		return err
	}
	defer tupleFile.Close()
	return dataset.WriteTuples(tupleFile, res.Scan, res.Pre)
}
