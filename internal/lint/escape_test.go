package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEscapeLogGolden replays the compiler's -m diagnostics for the
// hotpath corpus (testdata/escape.log: `go build -gcflags=-m .` in
// testdata/hotpath, go1.24) through HotpathSpans and CheckEscapeLog, the
// pair `make lint-escape` runs. testdata/escape.golden pins what they
// reject: seven allocating constructs, one over-report, and the
// annotation attached to no function. Its lines starting with # are
// commentary, kept by hand; -update does not rewrite this golden.
func TestEscapeLogGolden(t *testing.T) {
	pkg := loadCorpus(t, "hotpath", "goingwild/internal/fetch")
	log, err := os.ReadFile(filepath.Join("testdata", "escape.log"))
	if err != nil {
		t.Fatal(err)
	}
	spans, findings := HotpathSpans(pkg)
	findings = append(findings, CheckEscapeLog(spans, log, filepath.Join("testdata", "hotpath"))...)
	SortFindings(findings)
	got := render(findings)

	golden, err := os.ReadFile(filepath.Join("testdata", "escape.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if !strings.HasPrefix(line, "#") {
			want.WriteString(line)
		}
	}
	if got != want.String() {
		t.Errorf("escape findings diverge from testdata/escape.golden\n--- got ---\n%s--- want ---\n%s", got, want.String())
	}
}
