package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"goingwild/internal/ampli"
	"goingwild/internal/analysis"
	"goingwild/internal/churn"
	"goingwild/internal/core"
	"goingwild/internal/domains"
	"goingwild/internal/fingerprint"
	"goingwild/internal/netalyzr"
	"goingwild/internal/pipeline"
	"goingwild/internal/snoop"
)

// wildreport is one ordered table of sections over one core.Plan. -exp
// filters the table (Select), text mode renders the selection as it
// stands (Sectioned), and -markdown reads the same selection by its
// comparison column (Markdown). Every block is declared once, as a method
// of Report; the binary's main only orders them into its table.

// Block is one row of the table, one stdout block of the report.
type Block struct {
	// Names are the -exp names that select the block. A block without a
	// name is part of every run that has it in its table.
	Names []string
	// Needs adds the experiments the block reads to the plan.
	Needs func()
	// Render prints the block, once the plan has run what it needs.
	Render func(w io.Writer) error
	// Rows are the block's rows of the paper-vs-measured comparison.
	Rows func() []analysis.Row
}

// Section is a run of blocks printed by one render stage.
type Section struct {
	Name string
	// Explicit sections are selected by name only, never by "all".
	Explicit bool
	Blocks   []Block
}

// Of is the section holding one block, named after it.
func Of(b Block) Section { return Section{Name: b.Names[0], Blocks: []Block{b}} }

// ExpNames lists what -exp accepts for a table: "all", then every block
// name in table order.
func ExpNames(table []Section) []string {
	names := []string{"all"}
	for _, sec := range table {
		for _, b := range sec.Blocks {
			for _, n := range b.Names {
				if !slices.Contains(names, n) {
					names = append(names, n)
				}
			}
		}
	}
	return names
}

// Select filters table by a comma-separated -exp value: a block stays if
// it is nameless, one of its names is listed, or "all" is listed and its
// section is not Explicit; a section stays, at its place in the table, if
// any of its blocks does. A name the table does not know — a typo, an
// empty name — is an error naming the valid ones.
func Select(table []Section, spec string) ([]Section, error) {
	valid := ExpNames(table)
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown experiment %q in -exp; valid names: %s", name, strings.Join(valid, ","))
		}
		want[name] = true
	}
	var out []Section
	for _, sec := range table {
		var blocks []Block
		for _, b := range sec.Blocks {
			keep := len(b.Names) == 0 || want["all"] && !sec.Explicit
			for _, n := range b.Names {
				keep = keep || want[n]
			}
			if keep {
				blocks = append(blocks, b)
			}
		}
		if len(blocks) > 0 {
			sec.Blocks = blocks
			out = append(out, sec)
		}
	}
	return out, nil
}

// Report is one run of the report binary: the study, the plan its blocks
// add their experiments to, and the two experiments several blocks read.
// The zero Report anchors a table: blocks capture it when the table is
// built — before the flags are parsed, for -exp's help — and read it only
// once Start has bound it to a study.
type Report struct {
	Study *core.Study
	Plan  *core.Plan
	// Week is the study week of the point-in-time experiments.
	Week  int
	Scale analysis.Scale

	live   func(core.EpochView)
	series *core.Out[*churn.Series]
	dom    *core.Out[*core.DomainStudyResult]
}

// Start binds r to a study and an empty plan. Under -progress the weekly
// series prints every applied epoch to stderr.
func (f *Flags) Start(r *Report, study *core.Study, week int) {
	r.Study, r.Week = study, week
	r.Scale = analysis.Scale(study.World.ScaleFactor())
	r.Plan = study.NewPlan()
	if f.Progress {
		r.live = func(v core.EpochView) {
			fmt.Fprint(os.Stderr, analysis.RenderEpochDelta(v.Obs, v.Delta, r.Scale))
		}
	}
}

// Series is the weekly series, added to the plan by the first block that
// needs it.
func (r *Report) Series() *core.Out[*churn.Series] {
	if r.series == nil {
		r.series = r.Plan.WeeklySeries(r.live)
	}
	return r.series
}

// Census is the -week census every point-in-time experiment shares.
func (r *Report) Census() *core.Census { return r.Plan.Census(r.Week) }

// Domains is the Figure-3 chain over all 13 categories, added to the plan
// by the first block that needs it.
func (r *Report) Domains() *core.Out[*core.DomainStudyResult] {
	if r.dom == nil {
		r.dom = r.Plan.DomainStudy(r.Week, nil)
	}
	return r.dom
}

// Sectioned adds the sections to the report's plan: what each section's
// blocks need, then the stage that prints the section to stdout. The
// plan runs stages in the order they were added, so a section renders
// after what it needs, and the sections a failed run finished stay
// printed.
func Sectioned(r *Report, sections []Section) {
	for _, sec := range sections {
		for _, b := range sec.Blocks {
			if b.Needs != nil {
				b.Needs()
			}
		}
		r.Plan.Add(pipeline.Stage{Name: "render-" + sec.Name, Run: func(context.Context) ([]pipeline.Count, error) {
			for _, b := range sec.Blocks {
				if err := b.Render(os.Stdout); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}})
	}
}

// Markdown adds what the sections' comparison rows need and one stage
// that prints the paper-vs-measured table: the same table as Sectioned,
// read by its other column.
func Markdown(r *Report, sections []Section) {
	var rows []func() []analysis.Row
	for _, sec := range sections {
		for _, b := range sec.Blocks {
			if b.Rows != nil {
				b.Needs()
				rows = append(rows, b.Rows)
			}
		}
	}
	r.Plan.Add(pipeline.Stage{Name: "render-markdown", Run: func(context.Context) ([]pipeline.Count, error) {
		var all []analysis.Row
		for _, f := range rows {
			all = append(all, f()...)
		}
		_, err := fmt.Print(analysis.Markdown(all))
		return nil, err
	}})
}

// one is the block over one experiment: add puts it on the plan, render
// and rows (nil for none) read its result.
func one[T any](name string, add func() *core.Out[T], render func(T) string, rows func(T) []analysis.Row) Block {
	var out *core.Out[T]
	b := Block{
		Names: []string{name},
		Needs: func() { out = add() },
		Render: func(w io.Writer) error {
			_, err := fmt.Fprintln(w, render(out.V))
			return err
		},
	}
	if rows != nil {
		b.Rows = func() []analysis.Row { return rows(out.V) }
	}
	return b
}

// Figure1 is the weekly responder census by rcode.
func (r *Report) Figure1() Block {
	return one("fig1", r.Series,
		func(s *churn.Series) string { return analysis.RenderFigure1(s, r.Scale) },
		func(s *churn.Series) []analysis.Row { return analysis.CompareFigure1(s, r.Scale) })
}

// Table1 is the Top-10 country fluctuation; its rows cover Table 2 too.
func (r *Report) Table1() Block {
	return one("table1", r.Series,
		func(s *churn.Series) string { return analysis.RenderTable1(s, r.Scale, 10) },
		func(s *churn.Series) []analysis.Row { return analysis.CompareTables12(s, r.Scale) })
}

// Table2 is the RIR fluctuation.
func (r *Report) Table2() Block {
	return one("table2", r.Series, func(s *churn.Series) string { return analysis.RenderTable2(s, r.Scale) }, nil)
}

// Table3 is the CHAOS software survey.
func (r *Report) Table3() Block {
	return one("table3", func() *core.Out[*fingerprint.ChaosSurvey] { return r.Plan.Chaos(r.Week) },
		func(s *fingerprint.ChaosSurvey) string { return analysis.RenderTable3(s, 10) }, analysis.CompareTable3)
}

// Table4 is the device fingerprint survey.
func (r *Report) Table4() Block {
	return one("table4", func() *core.Out[*fingerprint.DeviceSurvey] { return r.Plan.Devices(r.Week) },
		analysis.RenderTable4, analysis.CompareTable4)
}

// Figure2 is the churn of the week-0 cohort, re-probed weekly over the
// whole series, with the share of the final survivors that sits in the
// three largest networks.
func (r *Report) Figure2() Block {
	return one("fig2", func() *core.Out[*churn.CohortStudy] { return r.Plan.Cohort(r.Study.Cfg.Weeks) },
		func(c *churn.CohortStudy) string {
			c.ConcentrateSurvivors(r.Study.World.ASNOf)
			return analysis.RenderFigure2(c)
		}, analysis.CompareFigure2)
}

// Utilization is the cache-snooping study.
func (r *Report) Utilization() Block {
	return one("util", func() *core.Out[*snoop.Result] { return r.Plan.Utilization(r.Week) },
		analysis.RenderUtilization, analysis.CompareUtilization)
}

// DomainBlocks are the blocks of the Figure-3 chain's section, in print
// order, all over one domain study: the chain's box flow, the prefilter
// summary, Table 5, Figure 4 and the case studies. "domains" selects the
// prefilter summary and Table 5.
func (r *Report) DomainBlocks() []Block {
	type result = *core.DomainStudyResult
	table5 := one("table5", r.Domains,
		func(d result) string { return analysis.RenderTable5(d.Report.Table5, domains.AllCategories) },
		func(d result) []analysis.Row { return analysis.CompareClassification(d.Report, d.Fig4) })
	table5.Names = append(table5.Names, "domains")
	return []Block{
		one("pipeline", r.Domains, func(d result) string {
			var b strings.Builder
			b.WriteString("Processing chain (Figure 3):\n")
			for _, st := range d.StageTrace {
				fmt.Fprintf(&b, "  %-26s %d\n", st.Stage, st.Count)
			}
			return b.String()
		}, nil),
		one("domains", r.Domains, func(d result) string { return analysis.RenderPrefilter(d.Pre) }, nil),
		table5,
		one("fig4", r.Domains, func(d result) string { return analysis.RenderFigure4(d.Fig4) }, nil),
		one("cases", r.Domains, func(d result) string { return analysis.RenderCaseStudies(&d.Report.Cases, r.Scale) }, nil),
	}
}

// DNSSEC is §5's race for wikileaks.org among the Chinese resolvers.
func (r *Report) DNSSEC() Block {
	return one("dnssec", func() *core.Out[*core.DNSSECRaceResult] { return r.Plan.DNSSECRace(r.Week, "CN", "wikileaks.org") },
		analysis.RenderDNSSECRace,
		func(race *core.DNSSECRaceResult) []analysis.Row { return analysis.CompareExtensions(race, nil, nil) })
}

// Verification is the secondary-vantage check of the census.
func (r *Report) Verification() Block {
	return one("verify", func() *core.Out[*core.VerificationResult] { return r.Plan.Verification(r.Week) },
		func(v *core.VerificationResult) string {
			return fmt.Sprintf("Verification scan (§2.2): primary %d, secondary %d, only-secondary %d (missed NOERROR %.2f%%)\n",
				v.Primary, v.Secondary, v.OnlySecondary, 100*v.MissedNOERRORShare)
		}, nil)
}

// Amplification is the ANY-query amplification survey.
func (r *Report) Amplification() Block {
	return one("amp", func() *core.Out[*ampli.Survey] { return r.Plan.Amplification(r.Week, "chase.com") },
		func(s *ampli.Survey) string { return analysis.RenderAmplification(s, len(r.Census().Resolvers)) },
		func(s *ampli.Survey) []analysis.Row { return analysis.CompareExtensions(nil, s, nil) })
}

// Popularity is the minute-resolution cache probe.
func (r *Report) Popularity() Block {
	return one("popularity", func() *core.Out[[]snoop.PopularityEstimate] { return r.Plan.Popularity(r.Week) },
		func(e []snoop.PopularityEstimate) string { return analysis.RenderPopularity(e, 10) },
		func(e []snoop.PopularityEstimate) []analysis.Row { return analysis.CompareExtensions(nil, nil, e) })
}

// Netalyzr is the in-network volunteer-session study over 400 sessions.
func (r *Report) Netalyzr() Block {
	return one("netalyzr", func() *core.Out[*netalyzr.Study] { return r.Plan.Netalyzr(r.Week, 400) },
		analysis.RenderNetalyzr, nil)
}
