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
	"flag"
	"fmt"
	"io"
	"os"

	"goingwild/internal/analysis"
	"goingwild/internal/churn"
	"goingwild/internal/cli"
	"goingwild/internal/core"
	"goingwild/internal/domains"
)

func main() {
	f := cli.Register("wildreport", 18)
	f.RegisterRun()
	var (
		weeks    = flag.Int("weeks", 55, "weekly scans")
		epochs   = flag.Int("epochs", 0, "stream the weekly series incrementally as N weekly epochs (implies -weeks N; 0 = batch); stdout is byte-identical either way")
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
		"wildreport order=%d seed=%#x weeks=%d epochs=%d week=%d chaos=%s",
		f.Order, f.Seed, *weeks, *epochs, *week, f.Chaos))
	defer release()

	if *epochs > 0 {
		*weeks = *epochs
	}
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
	scale := analysis.Scale(study.World.ScaleFactor())

	// The weekly series: batch or streamed without -checkpoint (stdout is
	// byte-identical either way), resumable epoch stream with it.
	runSeries := func() (*churn.Series, error) {
		var live func(core.EpochView)
		if f.Progress {
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
			f.Fatal(err)
		}
		chaos, _, err := study.RunChaosContext(ctx, *week)
		if err != nil {
			f.Fatal(err)
		}
		dev, err := study.RunDevicesContext(ctx, *week)
		if err != nil {
			f.Fatal(err)
		}
		cohort, err := study.RunCohortStudyContext(ctx, *weeks)
		if err != nil {
			f.Fatal(err)
		}
		cohort.ConcentrateSurvivors(study.World.ASNOf)
		util, err := study.RunUtilizationContext(ctx, *week)
		if err != nil {
			f.Fatal(err)
		}
		dom, err := study.RunDomainStudyContext(ctx, *week, nil)
		if err != nil {
			f.Fatal(err)
		}
		race, err := study.RunDNSSECRaceContext(ctx, *week, "CN", "wikileaks.org")
		if err != nil {
			f.Fatal(err)
		}
		amp, ampScanned, err := study.RunAmplificationContext(ctx, *week, "chase.com")
		if err != nil {
			f.Fatal(err)
		}
		pop, err := study.RunPopularityContext(ctx, *week)
		if err != nil {
			f.Fatal(err)
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
	run := cli.Sectioned(runner, study)
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
			cli.PrintDegraded(w, study)
			return nil
		}},
	}
	for _, s := range sections {
		if err := run(s.name, s.fn); err != nil {
			f.Fatal(err)
		}
	}
}
