package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// samplePkgs is a small package set so the determinism test stays fast;
// the whole-module equivalent runs in TestRepoIsClean and CI.
var samplePkgs = []string{
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

	args := append([]string{"-json"}, samplePkgs...)
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
	_, out, errb := capture(t, append([]string{"-json"}, samplePkgs...))
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
	inTempModule(t, map[string]string{
		"go.mod":    "module brokenmod\n\ngo 1.22\n",
		"broken.go": "package brokenmod\n\nfunc f() int { return undefinedSymbol }\n",
	})
	status, _, errb := capture(t, []string{"./..."})
	if status != 2 {
		t.Fatalf("broken package exited %d, want 2; stderr: %s", status, errb)
	}
	if !strings.Contains(string(errb), "cannot analyze") {
		t.Errorf("diagnostic does not name the failing package: %s", errb)
	}
}

// TestEscapeLogFindings drives -escape-log end to end: a heap allocation
// the log reports inside a //lint:hotpath function and an annotation
// attached to no function both fail the run, with cwd-relative paths;
// the same allocation outside the annotated span passes.
func TestEscapeLogFindings(t *testing.T) {
	inTempModule(t, map[string]string{
		"go.mod": "module hotmod\n\ngo 1.22\n",
		"hot.go": `package hotmod

//lint:hotpath per-probe
func Hot(n int) []byte {
	return make([]byte, n)
}

func Cold(n int) []byte {
	return make([]byte, n)
}

//lint:hotpath detached
var v = 1
`,
		"m.log": "# hotmod\n./hot.go:4:6: can inline Hot\n./hot.go:5:13: make([]byte, n) escapes to heap\n./hot.go:9:13: make([]byte, n) escapes to heap\n",
	})
	status, out, errb := capture(t, []string{"-escape-log", "m.log", "./..."})
	if status != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", status, errb)
	}
	want := "hot.go:5: [hotpath] compiler escape analysis reports an allocation inside //lint:hotpath Hot: make([]byte, n) escapes to heap\n" +
		"hot.go:12: [hotpath] //lint:hotpath annotation is not attached to a function declaration; move it onto the function's doc comment\n"
	if string(out) != want {
		t.Errorf("got\n%swant\n%s", out, want)
	}
}

// inTempModule writes files into a fresh directory and makes it the
// working directory until the test ends.
func inTempModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(cwd) })
}
