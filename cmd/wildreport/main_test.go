package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"goingwild/internal/cli"
	"goingwild/internal/dataset"
	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/scanner"
)

// TestMain lets a test run the command itself: with runMainEnv set, the
// test binary is wildreport.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "WILDREPORT_TEST_RUN_MAIN"

// wildreport runs the command with args and returns its stdout, stderr
// and exit status.
func wildreport(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	return wildreportEnv(t, nil, args...)
}

// wildreportEnv is wildreport with env added to the command's
// environment; a variable set there overrides the inherited one.
func wildreportEnv(t *testing.T, env []string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), runMainEnv+"=1"), env...)
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

// shape renders a selection as "section[block names]" per section, "-"
// standing for a nameless block.
func shape(sel []cli.Section) string {
	var parts []string
	for _, sec := range sel {
		var blocks []string
		for _, b := range sec.Blocks {
			if len(b.Names) == 0 {
				blocks = append(blocks, "-")
			} else {
				blocks = append(blocks, b.Names[0])
			}
		}
		parts = append(parts, sec.Name+"["+strings.Join(blocks, " ")+"]")
	}
	return strings.Join(parts, " ")
}

// TestExpSelectsFromTheTable pins -exp as a filter over the one section
// table: "all" is exactly the recorded report, census and verify answer
// only to their own names, the domains section's blocks answer to their
// own names, -export pulls the domains section into any run, and a name
// the table does not know is an error instead of an empty report.
func TestExpSelectsFromTheTable(t *testing.T) {
	const (
		head     = "series[fig1 table1 table2] table3[table3] table4[table4] fig2[fig2] util[util] "
		tail     = "domains[pipeline domains table5 fig4 cases] dnssec[dnssec] amp[amp] popularity[popularity] netalyzr[netalyzr]"
		recorded = head + tail
	)
	for _, tc := range []struct {
		exp, export, want string
	}{
		{exp: "all", want: recorded},
		{exp: "all,census", want: "census[census] " + recorded},
		{exp: "all,verify", want: head + "verify[verify] " + tail},
		{exp: "census", want: "census[census]"},
		{exp: "verify", want: "verify[verify]"},
		{exp: "fig1", want: "series[fig1]"},
		{exp: "table2,fig1", want: "series[fig1 table2]"},
		{exp: " table3 , util ", want: "table3[table3] util[util]"},
		{exp: "util,table3", want: "table3[table3] util[util]"},
		{exp: "netalyzr", want: "netalyzr[netalyzr]"},
		{exp: "domains", want: "domains[domains table5]"},
		{exp: "table5", want: "domains[table5]"},
		{exp: "fig4", want: "domains[fig4]"},
		{exp: "cases,pipeline", want: "domains[pipeline cases]"},
		{exp: "fig1", export: "out", want: "series[fig1] domains[-]"},
		{exp: "fig4", export: "out", want: "domains[- fig4]"},
		{exp: "census", export: "out", want: "census[census] domains[-]"},
	} {
		sel, err := cli.Select(sections(new(cli.Report), tc.export), tc.exp)
		if err != nil {
			t.Errorf("-exp %q: %v", tc.exp, err)
		} else if got := shape(sel); got != tc.want {
			t.Errorf("-exp %q -export %q selects\n  %s\nwant\n  %s", tc.exp, tc.export, got, tc.want)
		}
	}
	for _, exp := range []string{"tabel3", "", "fig1,", "fig1,,util", "ALL", "export", "series"} {
		_, err := cli.Select(sections(new(cli.Report), ""), exp)
		if err == nil || !strings.Contains(err.Error(), "all,census,fig1") {
			t.Errorf("-exp %q: err = %v, want an error naming the valid experiments", exp, err)
		}
	}
	names := cli.ExpNames(sections(new(cli.Report), ""))
	for _, name := range []string{"all", "census", "verify", "table5", "netalyzr", "popularity", "pipeline"} {
		if !slices.Contains(names, name) {
			t.Errorf("the -exp help omits %q: %v", name, names)
		}
	}
}

// TestModeFlagsConflict pins every flag pair whose modes exclude each
// other as a refusal, and that the modes alone and the flags that combine
// with them still pass.
func TestModeFlagsConflict(t *testing.T) {
	for _, tc := range []struct {
		given []string
		err   string
	}{
		{given: nil},
		{given: []string{"exp", "export", "week", "order", "seed", "chaos"}},
		{given: []string{"markdown", "exp"}},
		{given: []string{"markdown", "export"}, err: "-export and -markdown"},
	} {
		given := map[string]bool{}
		for _, name := range tc.given {
			given[name] = true
		}
		err := checkModes(given)
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("flags %v: err = %v, want %q", tc.given, err, tc.err)
		}
	}
}

// TestRefusalsExitTwo runs the refusals end to end: each is a usage
// error before any work, and a refused -export writes no directory. The
// flags of the deleted resume and shard modes are undefined, and the flag
// package refuses them the same way.
func TestRefusalsExitTwo(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	const undefined = "flag provided but not defined"
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{args: []string{"-exp", "tabel3"}, want: "wildreport: unknown experiment"},
		{args: []string{"-order", "8"}, want: "wildreport: -order: order 8 out of range [14, 32]"},
		{args: []string{"-order", "33"}, want: "wildreport: -order: order 33 out of range [14, 32]"},
		{args: []string{"-chaos", "bogus", "-export", out}, want: "wildreport: "},
		{args: []string{"-markdown", "-export", out}, want: "wildreport: -export and -markdown"},
		{args: []string{"-weeks", "4", "-week", "-1", "-exp", "table3", "-export", out}, want: "wildreport: -week -1"},
		{args: []string{"-checkpoint", "D"}, want: undefined},
		{args: []string{"-resume"}, want: undefined},
		{args: []string{"-shard", "0/4"}, want: undefined},
		{args: []string{"-shard-out", "s.json"}, want: undefined},
	} {
		args := append([]string{"-order", "14"}, tc.args...)
		stdout, stderr, exit := wildreport(t, args...)
		if exit != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("wildreport %v: exit %d, stdout %q, stderr %q; want exit 2 and %q", args, exit, stdout, stderr, tc.want)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused run left %s behind (stat err %v)", out, err)
	}
}

// TestExportIsTheCensusArtifact pins -export's sweep.json as the census
// artifact: decoded into dataset.Artifact and rendered, it prints exactly
// the census block of -exp census.
func TestExportIsTheCensusArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two order-14 reports")
	}
	dir := t.TempDir()
	base := []string{"-order", "14", "-weeks", "4", "-week", "3"}
	census, stderr, exit := wildreport(t, append(base, "-exp", "census")...)
	if exit != 0 {
		t.Fatalf("-exp census: exit %d: %s", exit, stderr)
	}
	exported, stderr, exit := wildreport(t, append(base, "-exp", "census", "-export", dir)...)
	if exit != 0 {
		t.Fatalf("-export: exit %d: %s", exit, stderr)
	}
	if !strings.HasPrefix(exported, census) {
		t.Errorf("-export changed the census block:\n%s\nwant it to start with\n%s", exported, census)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var art dataset.Artifact
	if err := dec.Decode(&art); err != nil {
		t.Fatal(err)
	}
	if art.Order != 14 || art.Week != 3 {
		t.Errorf("artifact of order %d week %d, want order 14 week 3", art.Order, art.Week)
	}
	sweep := &scanner.SweepResult{Probed: art.Probed, ByRCode: map[dnswire.RCode]int{}, Responders: make([]scanner.Responder, len(art.Responders))}
	for i, r := range art.Responders {
		sweep.Responders[i] = scanner.Responder{Addr: parseIPv4(t, r.Addr), Source: parseIPv4(t, r.Source), RCode: dnswire.RCode(r.RCode), Answered: r.Answered}
		sweep.ByRCode[dnswire.RCode(r.RCode)]++
	}
	if got := renderCensus(sweep); got != census {
		t.Errorf("sweep.json renders\n%s\nwant the -exp census block\n%s", got, census)
	}
	if fi, err := os.Stat(filepath.Join(dir, "tuples.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("tuples.jsonl: %v (err %v), want a non-empty file", fi, err)
	}
}

// parseIPv4 reverses lfsr.U32ToAddr(u).String(): a dotted quad and
// nothing else.
func parseIPv4(t *testing.T, s string) uint32 {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		t.Fatalf("%q is not an IPv4 address (%v)", s, err)
	}
	return lfsr.AddrToU32(a)
}
