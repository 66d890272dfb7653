// Command wildreport regenerates every table and figure of the paper and
// emits the paper-vs-measured comparison record (the data behind
// EXPERIMENTS.md).
//
// Usage:
//
//	wildreport -order 18 -weeks 55            # full run, text output
//	wildreport -order 18 -markdown            # markdown comparison table
//	wildreport -order 20 -progress            # stage events on stderr
//	wildreport -order 16 -chaos hostile       # run under injected faults
//	wildreport -order 16 -epochs 8 -progress  # stream the weekly series, live churn on stderr
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"goingwild/internal/analysis"
	"goingwild/internal/checkpoint"
	"goingwild/internal/churn"
	"goingwild/internal/core"
	"goingwild/internal/debughttp"
	"goingwild/internal/domains"
	"goingwild/internal/metrics"
	"goingwild/internal/pipeline"
	"goingwild/internal/scanner"
)

func main() {
	var (
		order       = flag.Uint("order", 18, "address-space width in bits")
		seed        = flag.Uint64("seed", 0x60176A11D, "world seed")
		weeks       = flag.Int("weeks", 55, "weekly scans")
		epochs      = flag.Int("epochs", 0, "stream the weekly series incrementally as N weekly epochs (implies -weeks N; 0 = batch); stdout is byte-identical either way")
		week        = flag.Int("week", 50, "week for point-in-time experiments")
		markdown    = flag.Bool("markdown", false, "emit the markdown comparison table only")
		progress    = flag.Bool("progress", false, "print per-stage pipeline events to stderr")
		chaosProf   = flag.String("chaos", "", "fault-injection profile (clean, lossy, hostile, flaky); empty injects nothing")
		ckptDir     = flag.String("checkpoint", "", "directory for crash-safe checkpoints; progress is saved there at every safe point")
		resume      = flag.Bool("resume", false, "resume from the newest checkpoint in -checkpoint instead of starting over")
		metricsPath = flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
		debugAddr   = flag.String("debug-addr", "", "serve expvar/pprof/metrics over HTTP on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *ckptDir != "" && *markdown {
		// The markdown table is one atomic render at the very end; there
		// is no incremental output to journal, so the combination would
		// only feign crash safety.
		fatal(fmt.Errorf("-checkpoint and -markdown are mutually exclusive"))
	}

	fingerprint := fmt.Sprintf("wildreport order=%d seed=%#x weeks=%d epochs=%d week=%d chaos=%s",
		*order, *seed, *weeks, *epochs, *week, *chaosProf)
	var runner *checkpoint.Runner
	var ctx context.Context
	if *ckptDir != "" {
		r, err := checkpoint.OpenRun(*ckptDir, *resume, fingerprint, os.Stdout, os.Stderr)
		if err != nil {
			fatal(err)
		}
		runner = r
		// Two-phase interrupts: first SIGINT checkpoints and stops, the
		// second cancels hard.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		defer runner.InstallSignals(cancel)()
	} else {
		// SIGINT cancels the context; every study checkpoint honors it, so
		// a Ctrl-C lands between stages (or mid-sweep) instead of being
		// ignored for the rest of an order-24 run.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
	}

	cfg := core.DefaultConfig(*order)
	if *chaosProf != "" {
		c, err := core.ChaosProfileConfig(*order, *chaosProf)
		if err != nil {
			fatal(err)
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
	// without a registry attached, so observability costs reproducibility
	// nothing (the determinism guard in CI enforces exactly that).
	var reg *metrics.Registry
	if *metricsPath != "" || *debugAddr != "" {
		reg = metrics.New()
		cfg.Metrics = reg
	}
	study, err := core.NewStudy(cfg)
	if err != nil {
		fatal(err)
	}
	defer study.Close()
	if *debugAddr != "" {
		addr, stopDebug, err := debughttp.Serve(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stopDebug(); err != nil {
				fmt.Fprintln(os.Stderr, "wildreport: debug endpoint:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "wildreport: debug endpoint on http://%s\n", addr)
	}
	if *metricsPath != "" {
		defer func() {
			if err := writeMetricsSnapshot(*metricsPath, reg); err != nil {
				fmt.Fprintln(os.Stderr, "wildreport:", err)
			}
		}()
	}
	if *progress {
		// Progress goes to stderr: stdout stays byte-identical with and
		// without -progress (the observer is a side channel only).
		study.Observer = stageProgress("wildreport")
		if reg != nil {
			// With a registry live, add the periodic one-line traffic
			// summary, clocked through the scanner's Clock seam.
			stopProg := metrics.StartProgress(os.Stderr, scanner.SystemClock, 2*time.Second, reg, nil)
			defer stopProg()
		}
	}
	scale := analysis.Scale(study.World.ScaleFactor())

	// The weekly series: batch or streamed without -checkpoint (stdout is
	// byte-identical either way), resumable epoch stream with it.
	runSeries := func() (*churn.Series, error) {
		var live func(core.EpochView)
		if *progress {
			live = func(v core.EpochView) {
				fmt.Fprint(os.Stderr, analysis.RenderEpochDelta(v.Obs, v.Delta, scale, v.Lag))
			}
		}
		switch {
		case runner != nil:
			return study.RunWeeklySeriesResumeContext(ctx, runner, live)
		case *epochs > 0:
			return study.RunWeeklySeriesStreamContext(ctx, live)
		default:
			return study.RunWeeklySeriesContext(ctx)
		}
	}

	if *markdown {
		// The comparison table needs every result at once; compute them in
		// the canonical order, then render the single markdown artifact.
		series, err := runSeries()
		if err != nil {
			fatal(err)
		}
		chaos, _, err := study.RunChaosContext(ctx, *week)
		if err != nil {
			fatal(err)
		}
		dev, err := study.RunDevicesContext(ctx, *week)
		if err != nil {
			fatal(err)
		}
		cohort, err := study.RunCohortStudyContext(ctx, *weeks)
		if err != nil {
			fatal(err)
		}
		cohort.ConcentrateSurvivors(study.World.ASNOf)
		util, err := study.RunUtilizationContext(ctx, *week)
		if err != nil {
			fatal(err)
		}
		dom, err := study.RunDomainStudyContext(ctx, *week, nil)
		if err != nil {
			fatal(err)
		}
		race, err := study.RunDNSSECRaceContext(ctx, *week, "CN", "wikileaks.org")
		if err != nil {
			fatal(err)
		}
		amp, ampScanned, err := study.RunAmplificationContext(ctx, *week, "chase.com")
		if err != nil {
			fatal(err)
		}
		pop, err := study.RunPopularityContext(ctx, *week)
		if err != nil {
			fatal(err)
		}
		_ = ampScanned
		var rows []analysis.Row
		rows = append(rows, analysis.CompareFigure1(series, scale)...)
		rows = append(rows, analysis.CompareTables12(series, scale)...)
		rows = append(rows, analysis.CompareTable3(chaos)...)
		rows = append(rows, analysis.CompareTable4(dev)...)
		rows = append(rows, analysis.CompareFigure2(cohort)...)
		rows = append(rows, analysis.CompareUtilization(util)...)
		rows = append(rows, analysis.CompareClassification(dom.Report, dom.Fig4)...)
		rows = append(rows, analysis.CompareExtensions(race, amp, pop)...)
		fmt.Print(analysis.Markdown(rows))
		return
	}

	// The full report runs as named sections — each computes its study
	// piece and renders it, in the same order the monolithic path did, so
	// stdout is byte-identical. Under -checkpoint every section journals
	// its output; a resume replays finished sections and re-runs only the
	// one the crash interrupted (each section re-seats the world clock
	// before touching the network, so section-granularity replay is
	// exact).
	run := sectioned(runner, study)
	sections := []struct {
		name string
		fn   func(w io.Writer) error
	}{
		{"series", func(w io.Writer) error {
			series, err := runSeries()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderFigure1(series, scale))
			fmt.Fprintln(w, analysis.RenderTable1(series, scale, 10))
			fmt.Fprintln(w, analysis.RenderTable2(series, scale))
			return nil
		}},
		{"table3", func(w io.Writer) error {
			chaos, _, err := study.RunChaosContext(ctx, *week)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderTable3(chaos, 10))
			return nil
		}},
		{"table4", func(w io.Writer) error {
			dev, err := study.RunDevicesContext(ctx, *week)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderTable4(dev))
			return nil
		}},
		{"fig2", func(w io.Writer) error {
			cohort, err := study.RunCohortStudyContext(ctx, *weeks)
			if err != nil {
				return err
			}
			cohort.ConcentrateSurvivors(study.World.ASNOf)
			fmt.Fprintln(w, analysis.RenderFigure2(cohort))
			return nil
		}},
		{"util", func(w io.Writer) error {
			util, err := study.RunUtilizationContext(ctx, *week)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderUtilization(util))
			return nil
		}},
		{"domains", func(w io.Writer) error {
			dom, err := study.RunDomainStudyContext(ctx, *week, nil)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Processing chain (Figure 3):")
			for _, st := range dom.StageTrace {
				fmt.Fprintf(w, "  %-26s %d\n", st.Stage, st.Count)
			}
			fmt.Fprintln(w)
			fmt.Fprintln(w, analysis.RenderPrefilter(dom.Pre))
			fmt.Fprintln(w, analysis.RenderTable5(dom.Report.Table5, domains.AllCategories))
			fmt.Fprintln(w, analysis.RenderFigure4(dom.Fig4))
			fmt.Fprintln(w, analysis.RenderCaseStudies(&dom.Report.Cases, scale))
			return nil
		}},
		{"dnssec", func(w io.Writer) error {
			race, err := study.RunDNSSECRaceContext(ctx, *week, "CN", "wikileaks.org")
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderDNSSECRace(race))
			return nil
		}},
		{"amp", func(w io.Writer) error {
			amp, ampScanned, err := study.RunAmplificationContext(ctx, *week, "chase.com")
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderAmplification(amp, ampScanned))
			return nil
		}},
		{"popularity", func(w io.Writer) error {
			pop, err := study.RunPopularityContext(ctx, *week)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, analysis.RenderPopularity(pop, 10))
			return nil
		}},
		{"netalyzr", func(w io.Writer) error {
			fmt.Fprintln(w, analysis.RenderNetalyzr(study.RunNetalyzr(*week, 400)))
			return nil
		}},
		{"degraded", func(w io.Writer) error {
			printDegraded(w, study)
			return nil
		}},
	}
	for _, s := range sections {
		if err := run(s.name, s.fn); err != nil {
			fatal(err)
		}
	}
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

// printDegraded reports the best-effort stages whose failures the
// pipeline absorbed. A clean run prints nothing, keeping stdout
// byte-identical to a build without degradation support.
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

func minInt(a, b int) int {
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

func fatal(err error) {
	if errors.Is(err, checkpoint.ErrStopped) {
		fmt.Fprintln(os.Stderr, "wildreport: checkpoint saved; resume with -resume")
		os.Exit(3)
	}
	fmt.Fprintln(os.Stderr, "wildreport:", err)
	os.Exit(1)
}
