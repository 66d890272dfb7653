package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
