package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSize shrinks every world so the whole benchmark, traced pass
// included, runs in seconds. Orders stay at 14–16, where the census
// ground-truth tolerances are known to hold (the chaos matrix runs at 16).
var smokeSize = sizing{
	CensusOrder: 16, HostileOrder: 16, DomainOrder: 14,
	ReportOrder: 14, ReportWeeks: 4, ReportWeek: 3,
	HitOrder: 14, HitEpochs: 4,
	ChurnOrder: 14, ChurnWaitEpoch: 4, ChurnStartEpoch: 6,
	ClusterN:  200,
	SetupReps: 1,
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestInputDigestIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames() {
		a, b, c := inputDigest(w, 7), inputDigest(w, 7), inputDigest(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w, a)
		}
	}
	if a, b := inputDigest("serve-hit", 7), inputDigest("serve-churn", 7); a == b {
		t.Errorf("serve-hit and serve-churn generate the same request stream (%s)", a)
	}
}

func TestWeekScheduleIsAPermutation(t *testing.T) {
	want := map[int]bool{}
	for _, w := range censusWeekSet {
		want[w] = true
	}
	if !want[censusTruthWeek] {
		t.Fatalf("the ground-truth week %d is not one the census sweeps", censusTruthWeek)
	}
	sched := weekSchedule(42)
	if len(sched) != len(censusWeekSet) {
		t.Fatalf("schedule visits %d weeks, want %d", len(sched), len(censusWeekSet))
	}
	for _, w := range sched {
		if !want[w] {
			t.Fatalf("schedule repeats or leaves the week set at week %d", w)
		}
		delete(want, w)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

// benchmarkJSON is the root BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, spec.go %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if m.Moves == "" {
			t.Errorf("%s: no end-to-end metric written down for it to move", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// checkSpans verifies the span file contract: parents precede their children
// and every child lies inside its parent.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) names parent %d, which does not precede it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside its parent %s [%d,%d]",
				i, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
	return nil
}

func TestCheckSpans(t *testing.T) {
	good := []span{{Name: "a", StartNs: 0, EndNs: 100, Parent: -1}, {Name: "b", StartNs: 10, EndNs: 90, Parent: 0}}
	if err := checkSpans(good); err != nil {
		t.Fatal(err)
	}
	bad := []span{{Name: "a", StartNs: 0, EndNs: 100, Parent: -1}, {Name: "b", StartNs: 10, EndNs: 190, Parent: 0}}
	if checkSpans(bad) == nil {
		t.Fatal("a child that outlives its parent was accepted")
	}
}

func TestReportStagesSumToWall(t *testing.T) {
	run := reportRun{Wall: 3 * time.Second, Stderr: []byte(`wildreport: stage weekly-scans     start
wildreport: stage weekly-scans     done  (300ms)  weeks scanned=12
wildreport: stage ipv4-scan        done  (25ms)  1-ipv4-scan responders=1853
wildreport: stage week0-scan       done  (20ms)  cohort members=1965
wildreport: stage cache-snoop      done  (1.5s)  snoop responders=1384
wildreport: stage figure4          done  (348.078µs)
`)}
	st := reportStages(run)
	if got := st["core.ipv4_scan_s"]; math.Abs(got-0.045) > 1e-9 {
		t.Errorf("core.ipv4_scan_s = %v, want 0.045", got)
	}
	if got := st["snoop.cache_snoop_s"]; got != 1.5 {
		t.Errorf("snoop.cache_snoop_s = %v, want 1.5", got)
	}
	var sum float64
	for k, v := range st {
		if k != "core.report_traced_wall_s" {
			sum += v
		}
	}
	if math.Abs(sum-3) > 1e-9 {
		t.Errorf("stages + unattributed = %v, want the 3s wall", sum)
	}
}

func TestDiffLines(t *testing.T) {
	for _, tc := range []struct {
		a, b          string
		lines, differ int
	}{
		{"a\nb\nc\n", "a\nb\nc\n", 4, 0},
		{"a\nb\nc\n", "a\nX\nc\n", 4, 1},
		{"a\nb\nc\n", "a\nb\n", 4, 2}, // the lost line, and the final newline moved up
		{"a\n", "", 2, 2},
	} {
		if lines, differ := diffLines([]byte(tc.a), []byte(tc.b)); lines != tc.lines || differ != tc.differ {
			t.Errorf("diffLines(%q, %q) = %d, %d; want %d, %d", tc.a, tc.b, lines, differ, tc.lines, tc.differ)
		}
	}
}

// writeResults writes a one-workload results file with the given
// ops_per_s and cpu_us_per_op runs.
func writeResults(t *testing.T, path string, opsPerS, cpu []float64) {
	t.Helper()
	var f resultsFile
	for i := range opsPerS {
		rec := runRecord{Workload: "serve-hit", Seed: uint64(i)}
		rec.Correct, rec.Attempted = true, 1
		rec.Metrics = map[string]metricValue{
			"ops_per_s":     {Value: opsPerS[i], Unit: "1/s"},
			"cpu_us_per_op": {Value: cpu[i], Unit: "us"},
		}
		f.Runs = append(f.Runs, rec)
	}
	buf, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	// ops_per_s falls 30 % with tight runs: worse. cpu_us_per_op rises 5 %: ok.
	writeResults(t, a, []float64{1000, 1010, 990}, []float64{1.00, 1.01, 0.99})
	writeResults(t, b, []float64{700, 705, 695}, []float64{1.05, 1.06, 1.04})
	var out bytes.Buffer
	worse, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !regexp.MustCompile(`ops_per_s.*worse`).Match(out.Bytes()) || !regexp.MustCompile(`cpu_us_per_op.*ok`).Match(out.Bytes()) {
		t.Fatalf("want ops_per_s worse and cpu_us_per_op ok, got worse=%v\n%s", worse, out.String())
	}
	// Runs scattered wider than the bound cannot resolve a small shift.
	writeResults(t, a, []float64{1000, 1400, 700, 1200}, []float64{1, 1, 1, 1})
	writeResults(t, b, []float64{950, 1300, 720, 1100}, []float64{1, 1, 1, 1})
	out.Reset()
	if worse, err = compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	if worse || !regexp.MustCompile(`ops_per_s.*unresolved`).Match(out.Bytes()) {
		t.Fatalf("want ops_per_s unresolved, got worse=%v\n%s", worse, out.String())
	}
}

// TestSmoke runs every workload and the traced pass at smoke size and
// checks the output contract: every declared metric is emitted, none of
// the end-to-end values is zero or NaN, every gate passes, and the span
// file parses with every child inside its parent.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	rc := runConfig{Seed: 3, Window: 300 * time.Millisecond, Size: smokeSize}
	names := workloadNames()
	if _, err := exec.LookPath("go"); err != nil {
		t.Log("go is not on PATH: skipping the workloads that run built binaries, and the traced pass that needs them")
		names = []string{"census-clean", "census-hostile", "domain-scan"}
	} else {
		root, err := findRoot()
		if err != nil {
			t.Fatal(err)
		}
		if rc.Bins, _, err = buildBinaries(root); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		r, err := runWorkload(ctx, name, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !r.correct() {
			t.Errorf("%s: gate failed (%d of %d): %v", name, r.Failed, r.Attempted, r.Problems)
		}
		values := r.endToEndValues()
		for _, m := range endToEnd {
			if v, ok := values[m.Name]; !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", name, m.Name, v, ok)
			}
		}
		if len(values) != len(endToEnd) {
			t.Errorf("%s: emitted %d end-to-end metrics, %d are declared", name, len(values), len(endToEnd))
		}
	}
	if len(names) != len(workloads) {
		return
	}

	tr := newTracer()
	gate, values, err := runTraced(ctx, "serve-churn", rc, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !gate.correct() {
		t.Errorf("traced pass: gate failed (%d of %d): %v", gate.Failed, gate.Attempted, gate.Problems)
	}
	for _, m := range perLayer {
		if v, ok := values[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s = %v (present %v)", m.Name, v, ok)
		}
	}
	for name := range values {
		declared := false
		for _, m := range perLayer {
			declared = declared || m.Name == name
		}
		if !declared {
			t.Errorf("traced pass emitted %s, which spec.go does not declare", name)
		}
	}
	// The reconciliation identities hold by construction.
	attributed := values["lfsr.next_batch_ns_per_probe"] + values["dnswire.append_query_ns_per_probe"] +
		values["wildnet.send_batch_ns_per_probe"] + values["scanner.response_share"]*values["dnswire.view_decode_ns_per_response"]
	if got, want := attributed+values["scanner.sweep_unattributed_ns_per_probe"], values["scanner.sweep_w1_ns_per_probe"]; math.Abs(got-want) > 1e-6*want {
		t.Errorf("census layers + residual = %v ns/probe, the Workers=1 sweep %v", got, want)
	}
	var stages float64
	for _, m := range reportParts {
		stages += values[m]
	}
	if wall := values["core.report_traced_wall_s"]; math.Abs(stages-wall) > 0.05*wall {
		t.Errorf("report stages + unattributed = %v s, traced wall %v s", stages, wall)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("span file is empty")
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
}
