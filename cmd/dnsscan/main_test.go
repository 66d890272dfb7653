package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"goingwild/internal/metrics"
)

// TestMain lets a test run the command itself: with runMainEnv set, the
// test binary is dnsscan.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "DNSSCAN_TEST_RUN_MAIN"

// dnsscan runs the command with args and returns its stdout, stderr and
// exit status.
func dnsscan(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), exit
}

// TestRefusalsExitTwo pins every bad flag value dnsscan checks as a
// usage error raised before the scan: exit 2, a diagnostic naming the
// flag, and nothing on stdout (no sweep line, no rcode table).
func TestRefusalsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{args: []string{"-mode", "bogus"}, want: `dnsscan: unknown -mode "bogus"; valid modes: sweep, chaos, domains`},
		{args: []string{"-mode", "domains", "-category", "Nope"}, want: `dnsscan: unknown -category "Nope"; valid categories: Ads,`},
		{args: []string{"-week", "-1"}, want: "dnsscan: -week -1"},
		{args: []string{"-epochs", "3"}, want: "flag provided but not defined: -epochs"},
		{args: []string{"-rate", "-5"}, want: "dnsscan: -rate -5"},
		{args: []string{"-rate", "-5", "-udp"}, want: "dnsscan: -rate -5"},
		{args: []string{"-chaos", "bogus"}, want: "dnsscan: "},
		{args: []string{"-order", "8"}, want: "dnsscan: -order: order 8 out of range [14, 32]"},
		{args: []string{"-order", "33"}, want: "dnsscan: -order: order 33 out of range [14, 32]"},
	} {
		args := append([]string{"-order", "14"}, tc.args...)
		stdout, stderr, exit := dnsscan(t, args...)
		if exit != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("dnsscan %v: exit %d, stdout %q, stderr %q; want exit 2 and %q", args, exit, stdout, stderr, tc.want)
		}
	}
}

// TestDomainsModeScans runs the mode the category check guards: a good
// category scans and prints one line per name.
func TestDomainsModeScans(t *testing.T) {
	stdout, stderr, exit := dnsscan(t, "-order", "14", "-mode", "domains", "-category", "Banking")
	if exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	if !strings.HasPrefix(stdout, "sweep: ") || !strings.Contains(stdout, "answered") || !strings.Contains(stdout, "\ntraffic: ") {
		t.Errorf("stdout lacks the sweep, name and traffic lines:\n%s", stdout)
	}
}

// wallClock matches what a run prints of the wall clock: the sweep's
// duration and rate, and the traffic line's rate.
var wallClock = regexp.MustCompile(` in [0-9.]+[a-zµ]+ \([0-9]+ probes/s\)| rate=[0-9]+ pps`)

// TestUDPGatewayMatchesMemory: the gateway runs every datagram through
// an in-memory transport over the same world, so a scan over real
// sockets prints what the in-memory scan prints — the sweep, then the
// domain scan of its resolvers — and moves every deterministic metric
// series alike. The one exception is scanner.settle.waits: only an
// asynchronous transport settles. A mismatch is never absorbed: a
// datagram the kernel drops shows here.
func TestUDPGatewayMatchesMemory(t *testing.T) {
	type result struct {
		stdout string
		series map[string]string // deterministic series by name
	}
	var mu sync.Mutex
	results := map[string]result{}
	profiles := []string{"none", "hostile"}
	t.Run("runs", func(t *testing.T) {
		for _, profile := range profiles {
			for _, transport := range []string{"memory", "udp"} {
				t.Run(profile+"/"+transport, func(t *testing.T) {
					t.Parallel()
					file := filepath.Join(t.TempDir(), "metrics.json")
					args := []string{"-order", "14", "-mode", "domains", "-metrics", file}
					if profile != "none" {
						args = append(args, "-chaos", profile)
					}
					if transport == "udp" {
						args = append(args, "-udp")
					}
					stdout, stderr, exit := dnsscan(t, args...)
					if exit != 0 {
						t.Fatalf("dnsscan %v: exit %d: %s", args, exit, stderr)
					}
					var kept []string
					for _, line := range strings.SplitAfter(stdout, "\n") {
						if !strings.HasPrefix(line, "scanning over UDP via gateway ") {
							kept = append(kept, wallClock.ReplaceAllString(line, ""))
						}
					}
					raw, err := os.ReadFile(file)
					if err != nil {
						t.Fatal(err)
					}
					var snap metrics.Snapshot
					if err := json.Unmarshal(raw, &snap); err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					defer mu.Unlock()
					results[profile+"/"+transport] = result{stdout: strings.Join(kept, ""), series: deterministicSeries(snap)}
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	for _, profile := range profiles {
		mem, udp := results[profile+"/memory"], results[profile+"/udp"]
		if mem.stdout != udp.stdout {
			t.Errorf("%s: stdout in memory:\n%s\nover UDP:\n%s", profile, mem.stdout, udp.stdout)
		}
		var names []string
		for name := range mem.series {
			names = append(names, name)
		}
		for name := range udp.series {
			if _, ok := mem.series[name]; !ok {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			if m, u := mem.series[name], udp.series[name]; m != u && name != "scanner.settle.waits" {
				t.Errorf("%s: %s = %q in memory, %q over UDP", profile, name, m, u)
			}
		}
	}
}

// deterministicSeries renders every deterministic series of snap by name.
func deterministicSeries(snap metrics.Snapshot) map[string]string {
	out := map[string]string{}
	snap = snap.StripTiming()
	for _, c := range snap.Counters {
		out[c.Name] = fmt.Sprint(c.Value)
	}
	for _, g := range snap.Gauges {
		out[g.Name] = fmt.Sprint(g.Value)
	}
	for _, h := range snap.Histograms {
		buckets := make([]uint64, len(h.Buckets))
		for i, b := range h.Buckets {
			buckets[i] = b.Count
		}
		out[h.Name] = fmt.Sprintf("count %d sum %d buckets %v", h.Count, h.Sum, buckets)
	}
	return out
}
