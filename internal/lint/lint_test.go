package lint

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// analyze runs every analyzer over one loaded package and returns the
// surviving (non-allowed) findings sorted by position.
func (c *Config) analyze(p *Package) []Finding {
	all := c.AnalyzeAll(p)
	out := all[:0]
	for _, f := range all {
		if !f.Allowed {
			out = append(out, f)
		}
	}
	return out
}

var update = flag.Bool("update", false, "rewrite the golden expected-findings files")

// corpusTests pins each rule's testdata directory to the package
// identity it is analyzed under. determinism and maporder only fire in
// their configured package sets, so the corpus must impersonate a
// member; errdrop applies everywhere, so a neutral path works. Every
// corpus runs under all rules, so its golden also pins what the sibling
// rules say about it.
var corpusTests = []struct {
	rule       string
	importPath string
}{
	{rule: RuleDeterminism, importPath: "goingwild/internal/wildnet"},
	{rule: RuleMapOrder, importPath: "goingwild/internal/analysis"},
	{rule: RuleErrDrop, importPath: "goingwild/internal/fetch"},
	{rule: RuleCtxHygiene, importPath: "goingwild/internal/fetch"},
	{rule: RuleSleepCall, importPath: "goingwild/internal/fetch"},
}

// repoLoader is the one Loader of the test binary: the corpora and the
// self-check share its standard library and its module packages.
var repoLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(root)
})

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loader, err := repoLoader()
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// loadCorpus type-checks testdata/<rule> as though it were the package
// at importPath.
func loadCorpus(t *testing.T, rule, importPath string) *Package {
	t.Helper()
	loader := testLoader(t)
	dir := filepath.Join("testdata", rule)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(loader.Fset, filepath.Join(dir, n), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := loader.check(importPath, files)
	if err != nil {
		t.Fatalf("type-checking corpus %s: %v", rule, err)
	}
	return pkg
}

// render flattens findings to golden-file lines, with paths reduced to
// the base name so the files are location-independent.
func render(findings []Finding) string {
	var b strings.Builder
	for _, f := range findings {
		f.Pos.Filename = filepath.Base(f.Pos.Filename)
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCorpusGolden runs every analyzer over its corpus and compares the
// surviving findings against the checked-in golden file. Each corpus
// contains true positives, true negatives, and //lint:allow
// suppressions, so a diff means rule behavior changed.
func TestCorpusGolden(t *testing.T) {
	for _, tc := range corpusTests {
		t.Run(tc.rule, func(t *testing.T) {
			pkg := loadCorpus(t, tc.rule, tc.importPath)
			cfg := DefaultConfig("goingwild")
			got := render(cfg.analyze(pkg))

			golden := filepath.Join("testdata", tc.rule+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
			// Sanity: the corpus must demonstrate the rule actually fires.
			if !strings.Contains(got, "["+tc.rule+"]") {
				t.Errorf("corpus produced no %s findings", tc.rule)
			}
		})
	}
}

// TestScopedRulesRespectPackageSets re-analyzes the determinism corpus
// under a package outside the deterministic set: every determinism
// finding must vanish (only the malformed-allow finding, which is
// path-independent by design, may remain). The maporder corpus goes
// quiet the same way outside the rendering set, and fires under dataset,
// which writes the census artifact and the tuple file, and under any
// package below examples/, listed or not.
func TestScopedRulesRespectPackageSets(t *testing.T) {
	cfg := DefaultConfig("goingwild")
	count := func(rule, importPath string) int {
		n := 0
		for _, f := range cfg.analyze(loadCorpus(t, rule, importPath)) {
			if f.Rule == rule {
				n++
			}
		}
		return n
	}
	if n := count(RuleDeterminism, "goingwild/internal/fetch"); n != 0 {
		t.Errorf("determinism fired %d times outside its package set", n)
	}
	if n := count(RuleMapOrder, "goingwild/internal/fetch"); n != 0 {
		t.Errorf("maporder fired %d times outside its package set", n)
	}
	if count(RuleMapOrder, "goingwild/internal/dataset") == 0 {
		t.Error("maporder is silent in dataset, a rendering package")
	}
	if count(RuleMapOrder, "goingwild/examples/newstudy") == 0 {
		t.Error("maporder is silent in an example, a rendering package")
	}
	for _, outside := range []string{"goingwild/examples", "goingwild/examplesx/newstudy"} {
		if n := count(RuleMapOrder, outside); n != 0 {
			t.Errorf("maporder fired %d times under %s, outside examples/", n, outside)
		}
	}
}

// TestCtxHygieneExemptsCmd re-analyzes the ctxhygiene corpus under a
// cmd/ import path: the whole rule must go quiet, since package main is
// where uncancellable roots belong.
func TestCtxHygieneExemptsCmd(t *testing.T) {
	pkg := loadCorpus(t, RuleCtxHygiene, "goingwild/cmd/fake")
	cfg := DefaultConfig("goingwild")
	for _, f := range cfg.analyze(pkg) {
		if f.Rule == RuleCtxHygiene {
			t.Errorf("ctxhygiene fired under cmd/: %s", f)
		}
	}
}

// TestFindingString pins the canonical output format.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:  token.Position{Filename: "x.go", Line: 7},
		Rule: RuleErrDrop,
		Msg:  "boom",
	}
	if got, want := f.String(), "x.go:7: [errdrop] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRepoIsClean is the self-check: the analyzers must exit clean over
// the repository itself, the same invariant `make lint` and CI enforce.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check is slow; covered by make lint")
	}
	loader := testLoader(t)
	dirs, err := PackageDirs(loader.ModRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("PackageDirs found only %d packages; expansion is broken", len(dirs))
	}
	cfg := DefaultConfig(loader.ModPath)
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		for _, f := range cfg.analyze(pkg) {
			t.Errorf("repo not lint-clean: %s", f)
		}
	}
}
