// Command wildlint runs the project's static-analysis pass (see
// internal/lint) over the module: the five rules determinism, maporder,
// errdrop, ctxhygiene and sleepcall. Every run checks every rule.
//
// Usage:
//
//	wildlint [-json] [-escape-log file] [./...|dir ...]
//
// With no arguments (or the literal ./...) it analyzes every package in
// the module containing the current directory. Findings print one per
// line as `file:line: [rule] message`; -json emits them instead as a
// sorted JSON array of {rule, file, line, msg, allowed} objects (allowed
// findings are included in JSON and suppressed in text).
// -escape-log holds //lint:hotpath functions to the compiler's escape
// analysis: the file is the stderr of `go build -gcflags=-m ./...`,
// and any heap allocation the compiler reports inside an annotated
// function, or a //lint:hotpath comment attached to no function, is a
// [hotpath] finding (`make lint-escape` wires this up).
//
// Exit status: 0 clean, 1 when any finding survives, 2 when a package
// fails to load or type-check — a partial analysis is not a clean one,
// so load failures are loud, named, and fatal rather than skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"goingwild/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire shape, one object per finding, sorted by
// (file, line, rule, msg). Allowed marks findings a //lint:allow
// suppresses; text mode hides them, JSON reports the allow-state.
type jsonFinding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Msg     string `json:"msg"`
	Allowed bool   `json:"allowed"`
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("wildlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a sorted JSON array (includes allowed findings with their allow-state)")
	escapeLog := fs.String("escape-log", "", "cross-check //lint:hotpath functions against this `go build -gcflags=-m` stderr file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "wildlint:", err)
		return 2
	}
	modRoot, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "wildlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(stderr, "wildlint:", err)
		return 2
	}

	dirs, err := expandArgs(fs.Args(), modRoot)
	if err != nil {
		fmt.Fprintln(stderr, "wildlint:", err)
		return 2
	}

	var escapes []byte
	if *escapeLog != "" {
		if escapes, err = os.ReadFile(*escapeLog); err != nil {
			fmt.Fprintln(stderr, "wildlint:", err)
			return 2
		}
	}

	cfg := lint.DefaultConfig(loader.ModPath)
	var findings []lint.Finding
	var spans []lint.HotpathSpan
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			// A package that fails to load or type-check means the
			// analysis set is incomplete; report which one and stop
			// rather than print a misleadingly clean result.
			fmt.Fprintf(stderr, "wildlint: cannot analyze %s: %v\n", relPath(cwd, dir), err)
			fmt.Fprintln(stderr, "wildlint: aborting: findings below this point would be incomplete")
			return 2
		}
		findings = append(findings, cfg.AnalyzeAll(pkg)...)
		if *escapeLog != "" {
			s, detached := lint.HotpathSpans(pkg)
			spans = append(spans, s...)
			findings = append(findings, detached...)
		}
	}
	if *escapeLog != "" {
		findings = append(findings, lint.CheckEscapeLog(spans, escapes, cwd)...)
	}
	for i := range findings {
		findings[i].Pos.Filename = relPath(cwd, findings[i].Pos.Filename)
	}
	// Re-sort globally so multi-dir runs (and JSON output) are
	// byte-identical regardless of dir order or scheduling.
	lint.SortFindings(findings)

	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Rule: f.Rule, File: f.Pos.Filename, Line: f.Pos.Line,
				Msg: f.Msg, Allowed: f.Allowed,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "wildlint:", err)
			return 2
		}
	}

	status := 0
	for _, f := range findings {
		if f.Allowed {
			continue
		}
		if !*jsonOut {
			fmt.Fprintln(stdout, f)
		}
		status = 1
	}
	return status
}

// expandArgs turns the command-line patterns into package directories.
// The only pattern understood is ./... (the whole module); anything else
// is taken as a directory holding one package.
func expandArgs(args []string, modRoot string) ([]string, error) {
	if len(args) == 0 {
		return lint.PackageDirs(modRoot)
	}
	var dirs []string
	for _, a := range args {
		if a == "./..." || a == "..." {
			more, err := lint.PackageDirs(modRoot)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, more...)
			continue
		}
		dirs = append(dirs, a)
	}
	return dirs, nil
}

// relPath shortens p relative to base when that makes it shorter.
func relPath(base, p string) string {
	if rel, err := filepath.Rel(base, p); err == nil && len(rel) < len(p) {
		return rel
	}
	return p
}
