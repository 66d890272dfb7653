package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// cell is one run of the report in the equivalence harness: the
// GOMAXPROCS it runs at and the side channels attached to it.
type cell struct {
	name     string
	procs    int
	metrics  bool // -metrics FILE
	progress bool // -progress
}

// run is what one cell printed and wrote.
type run struct {
	stdout, stderr string
	// snap is the -metrics snapshot without its timing-class series, and
	// snapJSON that snapshot re-encoded; both empty without -metrics.
	snap     metrics.Snapshot
	snapJSON []byte
}

// runCell runs the report with args in cell c. It fails the test unless
// the report exits 0, and logs one digest line per cell
//
//	digest PROFILE/CELL stdout SHA256 snapshot SHA256
//
// (snapshot "-" without -metrics), so two trees can be compared by
// diffing the sorted digest lines of `go test -v -run TestEquivalence`.
func runCell(t *testing.T, profile string, c cell, args ...string) run {
	t.Helper()
	args = slices.Clone(args)
	file := filepath.Join(t.TempDir(), "metrics.json")
	if c.metrics {
		args = append(args, "-metrics", file)
	}
	if c.progress {
		args = append(args, "-progress")
	}
	stdout, stderr, exit := wildreportEnv(t, []string{"GOMAXPROCS=" + strconv.Itoa(c.procs)}, args...)
	if exit != 0 {
		t.Fatalf("%s: wildreport %v at GOMAXPROCS=%d: exit %d: %s", c.name, args, c.procs, exit, stderr)
	}
	r := run{stdout: stdout, stderr: stderr}
	snapDigest := "-"
	if c.metrics {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("%s: %s: %v", c.name, file, err)
		}
		r.snap = snap.StripTiming()
		var buf bytes.Buffer
		if err := r.snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		r.snapJSON = buf.Bytes()
		snapDigest = fmt.Sprintf("%x", sha256.Sum256(r.snapJSON))
	}
	t.Logf("digest %s/%s stdout %x snapshot %s", profile, c.name, sha256.Sum256([]byte(stdout)), snapDigest)
	return r
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		if i >= len(w) || i >= len(g) || w[i] != g[i] {
			line := func(lines []string) string {
				if i < len(lines) {
					return strconv.Quote(lines[i])
				}
				return "(end of output)"
			}
			return fmt.Sprintf("line %d: want %s, got %s", i+1, line(w), line(g))
		}
	}
	return "no line differs"
}

// TestEquivalence is the determinism contract (DESIGN "Determinism
// contract") checked on the real report: under no fault profile and under
// each chaos profile, an order-14 report prints the same bytes at
// GOMAXPROCS 1 and 2, with and without -metrics and -progress, and writes
// the same deterministic snapshot every time. Each profile's snapshot
// shows the pathologies that profile injects, and the unfaulted run's
// -progress stderr shows the report's stages in plan order. One order-16
// report with the census flips GOMAXPROCS at its own size.
func TestEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the report 17 times")
	}
	const weeks = 4
	cells := []cell{
		{name: "base", procs: 1},
		{name: "observed", procs: 2, metrics: true, progress: true},
		{name: "repeat", procs: 1, metrics: true},
	}
	for _, profile := range append([]string{"none"}, wildnet.ChaosProfileNames()...) {
		t.Run(profile, func(t *testing.T) {
			t.Parallel()
			args := []string{"-order", "14", "-weeks", strconv.Itoa(weeks), "-week", "3"}
			if profile != "none" {
				args = append(args, "-chaos", profile)
			}
			// One subtest per cell, in order: each later cell is held to
			// the stdout of base, and repeat's snapshot to observed's.
			runs := make([]run, len(cells))
			for i, c := range cells {
				ok := t.Run(c.name, func(t *testing.T) {
					runs[i] = runCell(t, profile, c, args...)
					r, base := runs[i], runs[0]
					if i > 0 && r.stdout != base.stdout {
						t.Errorf("stdout of %s differs from base: %s", c.name, firstDiff(base.stdout, r.stdout))
					}
					if c.name == "repeat" && !bytes.Equal(runs[1].snapJSON, r.snapJSON) {
						t.Errorf("deterministic snapshots differ:\n--- observed\n%s--- repeat\n%s", runs[1].snapJSON, r.snapJSON)
					}
				})
				if !ok {
					return
				}
			}
			observed, repeat := runs[1], runs[2]
			t.Run("counters", func(t *testing.T) { checkCounters(t, profile, weeks, repeat.snap) })
			if profile == "none" {
				t.Run("stage_order", func(t *testing.T) { checkStageOrder(t, observed.stderr) })
			}
		})
	}
	t.Run("order16", func(t *testing.T) {
		t.Parallel()
		args := []string{"-order", "16", "-weeks", "8", "-week", "7", "-exp", "all,census"}
		base := runCell(t, "order16", cell{name: "base", procs: 1}, args...)
		observed := runCell(t, "order16", cell{name: "observed", procs: 2, progress: true}, args...)
		if observed.stdout != base.stdout {
			t.Errorf("stdout of observed differs from base: %s", firstDiff(base.stdout, observed.stdout))
		}
	})
}

// checkCounters holds a profile's deterministic snapshot to what the
// report must have done under it: swept, dispatched and answered under
// every profile, finished every stage it started, streamed one epoch per
// week, and injected exactly the faults the profile names.
func checkCounters(t *testing.T, profile string, weeks int, s metrics.Snapshot) {
	t.Helper()
	for _, name := range []string{
		"scanner.sweep.sent", "scanner.sweep.recv", "wildnet.send.rejected",
		"wildnet.send.answered", "wildnet.response.bytes", "pipeline.stage.done",
	} {
		if s.Counter(name) == 0 {
			t.Errorf("%s = 0", name)
		}
	}
	finished := s.Counter("pipeline.stage.done") + s.Counter("pipeline.stage.failed")
	if got := s.Counter("pipeline.stage.started"); got != finished {
		t.Errorf("pipeline.stage.started = %d but %d stages finished", got, finished)
	}
	if got := s.Counter("pipeline.epoch.done"); got != uint64(weeks) {
		t.Errorf("pipeline.epoch.done = %d, want %d", got, weeks)
	}
	if !slices.ContainsFunc(s.Histograms, func(h metrics.HistogramValue) bool { return h.Name == "pipeline.delta.size" }) {
		t.Error("the snapshot has no pipeline.delta.size")
	}
	var nonZero []string
	switch profile {
	case "clean":
		// The 0.2% base loss still triggers retries, but the fault layer
		// itself must stay silent.
		for _, name := range []string{
			"wildnet.fault.drop.query", "wildnet.fault.drop.response",
			"wildnet.fault.drop.burst", "wildnet.fault.garbled",
			"wildnet.fault.duplicated", "wildnet.fault.ratelimit.refused",
			"wildnet.fault.ratelimit.dropped", "wildnet.fault.flap.suppressed",
		} {
			if got := s.Counter(name); got != 0 {
				t.Errorf("clean profile injected %s = %d, want 0", name, got)
			}
		}
	case "hostile":
		nonZero = []string{
			"wildnet.fault.drop.query", "wildnet.fault.garbled",
			"wildnet.fault.duplicated", "wildnet.fault.ratelimit.refused",
			"scanner.retry.rounds", "scanner.retry.spend",
		}
	case "flaky":
		nonZero = []string{"wildnet.fault.flap.suppressed"}
	}
	for _, name := range nonZero {
		if s.Counter(name) == 0 {
			t.Errorf("%s profile left %s = 0", profile, name)
		}
	}
}

// reportStages is the order a full report starts its stages in: the
// order the section table adds them, each section's experiments before
// the stage that renders it, one census shared by the week's
// experiments, and the weekly series one stage with nothing nested in it.
var reportStages = []string{
	"weekly-scans", "render-series",
	"ipv4-scan", "chaos-scan", "render-table3",
	"device-fingerprint", "render-table4",
	"week0-scan", "cohort-track", "render-fig2",
	"cache-snoop", "render-util",
	"domain-scan", "prefilter", "classify", "figure4", "render-domains",
	"key-fetch@wikileaks.org", "race-probes@wikileaks.org", "render-dnssec",
	"any-survey", "render-amp",
	"minute-snoop", "render-popularity",
	"netalyzr", "render-netalyzr",
}

// checkStageOrder reads the -progress stage lines of stderr: the stages
// start in reportStages order, and each is done before the next starts.
func checkStageOrder(t *testing.T, stderr string) {
	t.Helper()
	var started []string
	running := ""
	for _, line := range strings.Split(stderr, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "wildreport:" || f[1] != "stage" {
			continue
		}
		switch stage, kind := f[2], f[3]; {
		case kind == "start" && running == "":
			started = append(started, stage)
			running = stage
		case kind == "done" && stage == running:
			running = ""
		default:
			t.Fatalf("stage line %q while %q runs", line, running)
		}
	}
	if running != "" {
		t.Errorf("stage %s never finished", running)
	}
	if !slices.Equal(started, reportStages) {
		t.Errorf("stages start in the order\n  %s\nwant\n  %s", strings.Join(started, " "), strings.Join(reportStages, " "))
	}
}
