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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"goingwild/internal/analysis"
	"goingwild/internal/checkpoint"
	"goingwild/internal/churn"
	"goingwild/internal/core"
	"goingwild/internal/dataset"
	"goingwild/internal/debughttp"
	"goingwild/internal/domains"
	"goingwild/internal/metrics"
	"goingwild/internal/pipeline"
	"goingwild/internal/scanner"
	"goingwild/internal/shardio"
)

func main() {
	var (
		order       = flag.Uint("order", 18, "address-space width in bits (14–32)")
		seed        = flag.Uint64("seed", 0x60176A11D, "world seed")
		weeks       = flag.Int("weeks", 12, "weekly scans for the longitudinal study")
		epochs      = flag.Int("epochs", 0, "stream the weekly series incrementally as N weekly epochs (implies -weeks N; 0 = batch); stdout is byte-identical either way")
		exps        = flag.String("exp", "all", "comma-separated experiments: census,fig1,table1,table2,table3,table4,fig2,util,verify,domains,fig4,cases,pipeline,amp,dnssec,popularity")
		week        = flag.Int("week", 50, "study week for the point-in-time experiments")
		export      = flag.String("export", "", "directory to export JSONL datasets into")
		progress    = flag.Bool("progress", false, "print per-stage pipeline events to stderr")
		chaos       = flag.String("chaos", "", "fault-injection profile (clean, lossy, hostile, flaky); empty injects nothing")
		shardSpec   = flag.String("shard", "", "run only census shard i/M of the -week sweep and exit (e.g. -shard 0/4); requires -shard-out")
		shardOut    = flag.String("shard-out", "", "write the -shard census artifact (JSON) to this file, for cmd/wildmerge")
		ckptDir     = flag.String("checkpoint", "", "directory for crash-safe checkpoints; progress is saved there at every safe point")
		resume      = flag.Bool("resume", false, "resume from the newest checkpoint in -checkpoint instead of starting over")
		metricsPath = flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
		debugAddr   = flag.String("debug-addr", "", "serve expvar/pprof/metrics over HTTP on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	fail := func(err error) {
		if runnerStopped(err) {
			fmt.Fprintln(os.Stderr, "goingwild: checkpoint saved; resume with -resume")
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "goingwild:", err)
		os.Exit(1)
	}
	if *resume && *ckptDir == "" {
		fail(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *ckptDir != "" && *shardSpec != "" {
		fail(fmt.Errorf("-checkpoint does not apply to -shard runs; checkpoint the merged run instead"))
	}

	// The fingerprint covers every flag that shapes stdout, so a resume
	// under different flags is refused instead of splicing two studies.
	fingerprint := fmt.Sprintf("goingwild order=%d seed=%#x weeks=%d epochs=%d exp=%s week=%d chaos=%s export=%s",
		*order, *seed, *weeks, *epochs, *exps, *week, *chaos, *export)
	var runner *checkpoint.Runner
	var ctx context.Context
	if *ckptDir != "" {
		r, err := checkpoint.OpenRun(*ckptDir, *resume, fingerprint, os.Stdout, os.Stderr)
		if err != nil {
			fail(err)
		}
		runner = r
		// Two-phase interrupts: the first SIGINT drains to the next safe
		// point and checkpoints (surfacing as ErrStopped), the second
		// cancels hard.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		defer runner.InstallSignals(cancel)()
	} else {
		// SIGINT cancels the context; every study checkpoint honors it, so
		// a Ctrl-C stops the run at the next stage boundary or send batch.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
	}

	cfg := core.DefaultConfig(*order)
	if *chaos != "" {
		c, err := core.ChaosProfileConfig(*order, *chaos)
		if err != nil {
			fail(err)
		}
		cfg = c
	}
	cfg.Seed = *seed
	cfg.Weeks = *weeks
	if *epochs > 0 {
		cfg.Weeks = *epochs
		*weeks = *epochs
	}
	// Metrics are a pure side channel: stdout is byte-identical with and
	// without a registry attached.
	var reg *metrics.Registry
	if *metricsPath != "" || *debugAddr != "" {
		reg = metrics.New()
		cfg.Metrics = reg
	}
	study, err := core.NewStudy(cfg)
	if err != nil {
		fail(err)
	}
	defer study.Close()
	if *debugAddr != "" {
		addr, stopDebug, err := debughttp.Serve(*debugAddr, reg)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := stopDebug(); err != nil {
				fmt.Fprintln(os.Stderr, "goingwild: debug endpoint:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "goingwild: debug endpoint on http://%s\n", addr)
	}
	if *metricsPath != "" {
		defer func() {
			if err := writeMetricsSnapshot(*metricsPath, reg); err != nil {
				fmt.Fprintln(os.Stderr, "goingwild:", err)
			}
		}()
	}
	if *progress {
		// Stage events go to stderr so stdout stays byte-identical with
		// and without -progress (the observer is a side channel only).
		study.Observer = stageProgress("goingwild")
		if reg != nil {
			stopProg := metrics.StartProgress(os.Stderr, scanner.SystemClock, 2*time.Second, reg, nil)
			defer stopProg()
		}
	}
	scale := analysis.Scale(study.World.ScaleFactor())

	// -shard i/M is the out-of-process sharding mode: run exactly one
	// census shard of the -week sweep, write its artifact, and exit.
	// cmd/wildmerge recombines the M artifacts into the unsharded census.
	if *shardSpec != "" {
		if err := runShard(ctx, study, *week, *shardSpec, *shardOut); err != nil {
			fail(err)
		}
		return
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := sectioned(runner, study)

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
		if *progress {
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
			fail(err)
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
			fail(err)
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
			fail(err)
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
			fail(err)
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
			fail(err)
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
			fail(err)
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
			fail(err)
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
			fail(err)
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
			fail(err)
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
			fail(err)
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
			fail(err)
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
			fail(err)
		}
	}
	if all || want["netalyzr"] {
		if err := run("netalyzr", func(w io.Writer) error {
			fmt.Fprintln(w, analysis.RenderNetalyzr(study.RunNetalyzr(*week, 500)))
			return nil
		}); err != nil {
			fail(err)
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
			fail(err)
		}
	}
	// A clean run prints nothing here, so stdout stays byte-identical.
	if err := run("degraded", func(w io.Writer) error {
		printDegraded(w, study)
		return nil
	}); err != nil {
		fail(err)
	}
}

// runnerStopped reports whether err is the orderly first-interrupt stop
// (checkpoint saved, exit 3) rather than a failure.
func runnerStopped(err error) bool {
	return errors.Is(err, checkpoint.ErrStopped)
}

// sectioned returns the seam every stdout block goes through: direct
// execution without -checkpoint, journaled crash-safe sections with it.
// Each checkpointed section also persists the degradation entries it
// contributed, so a resumed run's final "Degraded stages" block matches
// the uninterrupted run even when the degrading section is replayed
// from the journal instead of re-executed.
func sectioned(runner *checkpoint.Runner, study *core.Study) func(name string, fn func(w io.Writer) error) error {
	if runner == nil {
		return func(name string, fn func(w io.Writer) error) error { return fn(os.Stdout) }
	}
	return func(name string, fn func(w io.Writer) error) error {
		doc := "degraded:" + name
		if runner.Done(name) {
			var recs []core.DegradedStage
			if ok, err := runner.Fetch(doc, &recs); err != nil {
				return err
			} else if ok {
				study.Degraded = append(study.Degraded, recs...)
			}
			return runner.Section(name, fn)
		}
		base := len(study.Degraded)
		return runner.Section(name, func(w io.Writer) error {
			if err := fn(w); err != nil {
				return err
			}
			// Overwriting the same value makes a crash-retry idempotent.
			if delta := study.Degraded[base:]; len(delta) > 0 {
				return runner.Update(doc, delta)
			}
			return nil
		})
	}
}

// resumableSweep runs the week's census sweep through the checkpoint
// store, so a killed run restarts from its last rendezvous instead of
// from scratch. Without a runner it is the plain sweep.
func resumableSweep(ctx context.Context, study *core.Study, runner *checkpoint.Runner, doc string, week int) (*scanner.SweepResult, error) {
	if runner == nil {
		return study.SweepAtContext(ctx, week)
	}
	rc := &scanner.ResumeControl{
		Save: func(ck *scanner.SweepCheckpoint) error {
			if err := runner.Update(doc, ck); err != nil {
				return err
			}
			return runner.CheckStop()
		},
	}
	var prev scanner.SweepCheckpoint
	if ok, err := runner.Fetch(doc, &prev); err != nil {
		return nil, err
	} else if ok {
		rc.Prev = &prev
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

// printDegraded reports the best-effort stages whose failures the
// pipeline absorbed; a clean run prints nothing.
func printDegraded(w io.Writer, study *core.Study) {
	if len(study.Degraded) == 0 {
		return
	}
	fmt.Fprintln(w, "Degraded stages (best-effort failures absorbed):")
	for _, d := range study.Degraded {
		fmt.Fprintf(w, "  %-26s %s\n", d.Stage, d.Err)
	}
	fmt.Fprintln(w)
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

// stageProgress renders pipeline events as one stderr line per edge.
func stageProgress(prog string) pipeline.Observer {
	return func(ev pipeline.StageEvent) {
		switch ev.Kind {
		case pipeline.StageStart:
			fmt.Fprintf(os.Stderr, "%s: stage %-16s start\n", prog, ev.Stage)
		case pipeline.StageDone:
			fmt.Fprintf(os.Stderr, "%s: stage %-16s done  (%s)", prog, ev.Stage, ev.Elapsed)
			for _, c := range ev.Counts {
				fmt.Fprintf(os.Stderr, "  %s=%d", c.Name, c.Value)
			}
			fmt.Fprintln(os.Stderr)
		case pipeline.StageFailed:
			fmt.Fprintf(os.Stderr, "%s: stage %-16s failed: %v\n", prog, ev.Stage, ev.Err)
		case pipeline.StageDegraded:
			fmt.Fprintf(os.Stderr, "%s: stage %-16s degraded: %v\n", prog, ev.Stage, ev.Err)
		case pipeline.StageSkipped:
			fmt.Fprintf(os.Stderr, "%s: stage %-16s skipped\n", prog, ev.Stage)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// writeMetricsSnapshot writes the registry's final snapshot as JSON.
func writeMetricsSnapshot(path string, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
