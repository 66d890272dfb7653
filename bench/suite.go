package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runRecord is one single-workload run as the results file keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	runInfo
	runOutput
}

// resultsFile is what the suite writes and -compare reads.
type resultsFile struct {
	Env     environment `json:"env"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runSuite runs every named workload in a fresh child process — this
// binary again, naming one workload — so no workload inherits another's
// heap, page cache warmth or peak RSS. Run i of a workload uses seed+i.
// With traced set, each workload also gets its traced pass, after and
// apart from the untraced one.
func runSuite(ctx context.Context, names []string, seed uint64, seconds float64, traced bool, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Env: currentEnvironment(), Seed: seed, Seconds: seconds}
	passes := []int{0}
	if traced {
		passes = []int{0, 1}
	}
	for _, name := range names {
		for i := 0; i < runs; i++ {
			for _, pass := range passes {
				rec, err := runChild(ctx, self, name, seed+uint64(i), seconds, pass)
				if err != nil {
					return err
				}
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	printSummary(os.Stdout, &file)
	fmt.Println("wrote", out)
	return nil
}

// runChild runs one workload in a child process and parses what it
// printed: the info line and, last, the result object.
func runChild(ctx context.Context, self, name string, seed uint64, seconds float64, trace int) (runRecord, error) {
	rec := runRecord{Workload: name, Seed: seed, Trace: trace}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self,
		"-workload", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	dieWithParent(cmd)
	fmt.Fprintf(os.Stderr, "bench: running %s seed %d trace %d\n", name, seed, trace)
	if err := cmd.Run(); err != nil {
		return rec, fmt.Errorf("workload %s (seed %d, trace %d): %w\n%s", name, seed, trace, err, stdout.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.runOutput); err != nil {
		return rec, fmt.Errorf("workload %s: last output line is not a result object: %w", name, err)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, infoPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &rec.runInfo); err != nil {
				return rec, fmt.Errorf("workload %s: bad info line: %w", name, err)
			}
		}
	}
	return rec, nil
}

// metricRuns collects a results file's values of one pass, keyed by
// workload then metric, in run order.
func (f *resultsFile) metricRuns(trace int) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace != trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// printSummary prints every metric of every workload by name with unit:
// the median over the workload's runs and, with several runs, the
// interquartile spread as a share of the median.
func printSummary(w io.Writer, f *resultsFile) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for pass, specs := range [][]metricSpec{endToEnd, perLayer} {
		byWorkload := f.metricRuns(pass)
		for _, wl := range workloads {
			metrics, ok := byWorkload[wl.Name]
			if !ok {
				continue
			}
			for _, m := range specs {
				vals := metrics[m.Name]
				if len(vals) == 0 {
					continue
				}
				sp := "-"
				if len(vals) > 1 {
					sp = fmt.Sprintf("%.1f%%", 100*spread(vals))
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\tn=%d\tspread %s\n", wl.Name, m.Name, median(vals), m.Unit, len(vals), sp)
			}
		}
	}
	tw.Flush()
}

func readResults(path string) (*resultsFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both files and reports whether any row is worse. Values are medians
// over each file's runs. A row is:
//
//	worse       B's median is worse than A's by more than the bound, and
//	            the runs resolve it: the spread of both sets is within the
//	            bound, or every run of B is worse than every run of A
//	ok          not worse by more than the bound, and resolved likewise
//	            (or every run of B is better than every run of A)
//	unresolved  the run-to-run spread is wider than the bound, so the
//	            runs cannot tell the two apart
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ra, rb := a.metricRuns(0), b.metricRuns(0)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA (base)\tB\tB/A\tspread A\tspread B\tbound\tverdict\n")
	anyWorse := false
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := ra[wl.Name][m.Name], rb[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := judge(va, vb, m)
			anyWorse = anyWorse || verdict == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%s\t%s\t%.2f\t%s\n",
				wl.Name, m.Name, median(va), m.Unit, median(vb), m.Unit, median(vb)/median(va),
				spreadText(va), spreadText(vb), m.Bound, verdict)
		}
	}
	tw.Flush()
	return anyWorse, nil
}

func spreadText(vals []float64) string {
	if len(vals) < 2 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*spread(vals))
}

// judge is compareFiles' verdict for one metric.
func judge(a, b []float64, m metricSpec) string {
	// worseBy is how much worse B's median is, as a share of A's.
	worseBy := (median(b) - median(a)) / median(a)
	sign := 1.0
	if m.Better == "higher" {
		worseBy, sign = -worseBy, -1
	}
	// separated reports whether every run of x is worse than every run
	// of y (in the metric's own direction).
	separated := func(x, y []float64) bool {
		best, worst := math.Inf(1), math.Inf(-1)
		for _, v := range x {
			best = math.Min(best, sign*v)
		}
		for _, v := range y {
			worst = math.Max(worst, sign*v)
		}
		return best > worst
	}
	resolved := true
	for _, vals := range [][]float64{a, b} {
		if len(vals) > 1 && spread(vals) > m.Bound {
			resolved = false
		}
	}
	switch {
	case worseBy > m.Bound && (resolved || separated(b, a)):
		return "worse"
	case worseBy <= m.Bound && (resolved || separated(a, b)):
		return "ok"
	}
	return "unresolved"
}
