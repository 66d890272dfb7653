package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// capture runs wildlint with stdout/stderr redirected to temp files and
// returns (exit status, stdout bytes, stderr bytes).
func capture(t *testing.T, args []string) (int, []byte, []byte) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "err"))
	if err != nil {
		t.Fatal(err)
	}
	status := run(args, outF, errF)
	outF.Close()
	errF.Close()
	out, _ := os.ReadFile(outF.Name())
	errb, _ := os.ReadFile(errF.Name())
	return status, out, errb
}

// flowPkgs is a small, flow-analysis-heavy package set so the
// determinism tests stay fast; the whole-module equivalent runs in
// TestRepoIsClean and CI.
var flowPkgs = []string{
	"../../internal/scanner",
	"../../internal/metrics",
	"../../internal/analysis",
	"../../internal/dnswire",
}

// TestJSONDeterministicAcrossRuns pins the satellite guarantee: -json
// output is byte-identical run to run and under a GOMAXPROCS flip. Map
// iteration anywhere in the analyzers would break this.
func TestJSONDeterministicAcrossRuns(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	args := append([]string{"-json"}, flowPkgs...)
	st1, out1, err1 := capture(t, args)
	if st1 == 2 {
		t.Fatalf("load failed: %s", err1)
	}

	runtime.GOMAXPROCS(4)
	st2, out2, _ := capture(t, args)
	if st1 != st2 {
		t.Fatalf("exit status flipped with GOMAXPROCS: %d vs %d", st1, st2)
	}
	if string(out1) != string(out2) {
		t.Errorf("-json output differs across GOMAXPROCS flip\n--- P=1 ---\n%s--- P=4 ---\n%s", out1, out2)
	}

	st3, out3, _ := capture(t, args)
	if st3 != st2 || string(out3) != string(out2) {
		t.Error("-json output differs across identical reruns")
	}
}

// TestJSONShape decodes the output and checks ordering and field
// presence rather than trusting the encoder.
func TestJSONShape(t *testing.T) {
	_, out, errb := capture(t, append([]string{"-json"}, flowPkgs...))
	if len(out) == 0 {
		t.Fatalf("no JSON produced; stderr: %s", errb)
	}
	var findings []jsonFinding
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("output is not a JSON finding array: %v", err)
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %s:%d before %s:%d", a.File, a.Line, b.File, b.Line)
		}
	}
	for _, f := range findings {
		if f.Rule == "" || f.File == "" || f.Line == 0 {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

// TestLoadFailureIsFatal points wildlint at a module with a file that
// does not type-check: the run must exit 2 and name the package instead
// of silently analyzing a partial set.
func TestLoadFailureIsFatal(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module brokenmod\n\ngo 1.22\n")
	mustWrite(t, filepath.Join(dir, "broken.go"),
		"package brokenmod\n\nfunc f() int { return undefinedSymbol }\n")

	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	status, _, errb := capture(t, []string{"./..."})
	if status != 2 {
		t.Fatalf("broken package exited %d, want 2; stderr: %s", status, errb)
	}
	if !containsStr(string(errb), "cannot analyze") {
		t.Errorf("diagnostic does not name the failing package: %s", errb)
	}
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
