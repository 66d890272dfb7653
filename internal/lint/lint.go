// Package lint is the project's static-analysis pass: five syntactic
// analyzers that enforce the correctness contracts the measurement
// pipeline relies on but the compiler cannot check, plus the
// -escape-log cross-check (escape.go) that holds //lint:hotpath
// functions to the compiler's own escape analysis.
// A rule stays only while it has caught something or guards a live
// seam; README ("Correctness tooling") keeps the catch record.
//
// The wildnet substitution (DESIGN.md) makes every table and figure a
// pure function of (seed, epoch). That contract survives only as long as
// no ambient state leaks into the measurement paths, which is exactly
// what these rules police:
//
//   - determinism: forbids time.Now, time.Since, and global math/rand
//     state in the seed-deterministic packages. Wall-clock reads and
//     process-seeded randomness make two runs with the same seed observe
//     different Internets.
//   - maporder: flags `for range` over a map whose body appends to an
//     outer slice without a later sort, writes rendered output, builds a
//     string, or leaks the iteration variables into outer state — the
//     patterns that make a report depend on Go's randomized map order.
//   - errdrop: flags discarded error returns from internal/dnswire
//     encode/decode calls, where a swallowed malformed-packet error
//     silently corrupts measurement counts.
//   - ctxhygiene: polices context propagation through the stage engine:
//     no context.Context struct fields, ctx always the first parameter,
//     and no context.Background()/TODO() roots outside cmd/ and tests.
//   - sleepcall: forbids raw time.Sleep/After/Tick/NewTimer/NewTicker —
//     delay must flow through the injected Clock seam so fake-clock
//     tests and the deterministic backoff schedule see every pause.
//
// Intentional exceptions are annotated in the source:
//
//	//lint:allow <rule> <reason>
//
// on the offending line or the line directly above it. An allow comment
// without a reason, naming an unknown rule, or covering a line that no
// longer trips the rule (a stale allow) is itself a finding.
//
// The pass uses only the standard library (go/parser, go/ast, go/types);
// the module stays dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Rule names, as they appear in findings and //lint:allow comments.
const (
	RuleDeterminism = "determinism"
	RuleMapOrder    = "maporder"
	RuleErrDrop     = "errdrop"
	RuleCtxHygiene  = "ctxhygiene"
	RuleSleepCall   = "sleepcall"
	// RuleHotPath tags -escape-log findings. It is no analyzer, so no
	// //lint:allow can name it.
	RuleHotPath = "hotpath"
	// RuleAllow tags problems with //lint:allow comments themselves:
	// malformed, unknown rule, or stale (covering nothing).
	RuleAllow = "allow"
)

// AllRules lists every rule name, in reporting order. A //lint:allow
// naming anything else is a finding.
var AllRules = []string{
	RuleDeterminism, RuleMapOrder, RuleErrDrop, RuleCtxHygiene,
	RuleSleepCall,
}

func knownRule(name string) bool {
	if name == RuleAllow {
		return true
	}
	for _, r := range AllRules {
		if r == name {
			return true
		}
	}
	return false
}

// Finding is one reported violation. Allowed marks findings suppressed
// by a //lint:allow comment; AnalyzeAll keeps them so the CLI's JSON
// mode can report allow-state.
type Finding struct {
	Pos     token.Position
	Rule    string
	Msg     string
	Allowed bool
}

// String renders the canonical `file:line: [rule] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Config names the package sets each rule applies to. Paths are full
// import paths; one ending in "/..." names every package under it.
type Config struct {
	// ModulePath is the module being analyzed (for locating the dnswire
	// package the errdrop rule watches).
	ModulePath string
	// Deterministic lists the packages whose outputs must be pure
	// functions of (seed, epoch); the determinism rule applies here.
	Deterministic []string
	// Rendering lists the packages that produce tables, reports, and
	// result sets; the maporder rule applies here.
	Rendering []string
}

// DefaultConfig returns the repository's contract: which packages are
// seed-deterministic and which render results. DESIGN.md ("Determinism
// contract") documents the same sets.
func DefaultConfig(modulePath string) Config {
	ip := func(names ...string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = modulePath + "/internal/" + n
		}
		return out
	}
	return Config{
		ModulePath: modulePath,
		Deterministic: ip("wildnet", "prand", "lfsr", "cluster", "classify",
			"analysis", "churn", "scanner", "metrics"),
		// core and pipeline carry delta batches into rendered output, and
		// dataset writes the census artifact and the tuple file, so
		// maporder must follow results through them too. The examples
		// print results as well, and each new one is covered unlisted.
		Rendering: append(ip("analysis", "classify", "snoop", "churn", "scanner",
			"core", "pipeline", "dataset"), modulePath+"/examples/..."),
	}
}

func contains(paths []string, p string) bool {
	for _, x := range paths {
		if x == p {
			return true
		}
		if dir, ok := strings.CutSuffix(x, "/..."); ok && strings.HasPrefix(p, dir+"/") {
			return true
		}
	}
	return false
}

// checkers lists every analyzer; AnalyzeAll sorts what they emit.
var checkers = []func(*Package, *Config, func(token.Pos, string, string)){
	checkDeterminism, checkMapOrder, checkErrDrop, checkCtxHygiene,
	checkSleepCall,
}

// AnalyzeAll runs every analyzer and returns every finding,
// including ones a //lint:allow suppresses (marked Allowed) and
// allow-machinery findings: malformed comments, unknown rule names, and
// stale allows whose rule no longer fires on the covered line.
func (c *Config) AnalyzeAll(p *Package) []Finding {
	var raw []Finding
	emit := func(pos token.Pos, rule, msg string) {
		raw = append(raw, Finding{Pos: p.Fset.Position(pos), Rule: rule, Msg: msg})
	}
	for _, check := range checkers {
		check(p, c, emit)
	}

	allows, records, bad := collectAllows(p)
	out := make([]Finding, 0, len(raw)+len(bad))
	for _, f := range raw {
		f.Allowed = allows.covers(f.Pos, f.Rule)
		out = append(out, f)
	}
	out = append(out, bad...)
	out = append(out, staleAllows(raw, records)...)
	SortFindings(out)
	// A multi-assign statement can trip the same rule once per operand;
	// one report per line and rule is enough.
	dedup := out[:0]
	for i, f := range out {
		if i > 0 && f.Pos.Filename == out[i-1].Pos.Filename &&
			f.Pos.Line == out[i-1].Pos.Line && f.Rule == out[i-1].Rule {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup
}

// SortFindings orders findings by (file, line, rule, message), the
// order every report prints them in.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// staleAllows reports //lint:allow comments that suppress nothing: no
// finding of the named rule sits on the comment's line or the line
// below. Unknown rule names are reported as such: they can never match
// a finding, so they are typos, not suppressions.
func staleAllows(raw []Finding, records []allowRecord) []Finding {
	var out []Finding
	for _, rec := range records {
		if !knownRule(rec.rule) {
			out = append(out, Finding{Pos: rec.pos, Rule: RuleAllow,
				Msg: "//lint:allow names unknown rule " + strconv.Quote(rec.rule)})
			continue
		}
		used := false
		for _, f := range raw {
			if f.Rule == rec.rule && f.Pos.Filename == rec.pos.Filename &&
				(f.Pos.Line == rec.pos.Line || f.Pos.Line == rec.pos.Line+1) {
				used = true
				break
			}
		}
		if !used {
			out = append(out, Finding{Pos: rec.pos, Rule: RuleAllow,
				Msg: "stale //lint:allow " + rec.rule + ": the covered line no longer trips the rule; delete the comment"})
		}
	}
	return out
}

// allowSet maps file -> line -> rules allowed on that line.
type allowSet map[string]map[int][]string

// covers reports whether an allow for rule sits on the finding's line or
// the line directly above it.
func (a allowSet) covers(pos token.Position, rule string) bool {
	lines := a[pos.Filename]
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, r := range lines[l] {
			if r == rule {
				return true
			}
		}
	}
	return false
}

// allowRecord is one parsed //lint:allow comment, kept positionally for
// stale-allow detection.
type allowRecord struct {
	pos  token.Position
	rule string
}

// collectAllows parses every //lint:allow comment in the package.
// Malformed comments (missing rule or reason) come back as findings so
// the escape hatch cannot silently rot.
func collectAllows(p *Package) (allowSet, []allowRecord, []Finding) {
	set := allowSet{}
	var records []allowRecord
	var bad []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Finding{Pos: pos, Rule: RuleAllow,
						Msg: "malformed //lint:allow: need a rule name and a reason"})
					continue
				}
				m := set[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					set[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], fields[0])
				records = append(records, allowRecord{pos: pos, rule: fields[0]})
			}
		}
	}
	return set, records, bad
}

// inspectStack walks root calling fn with each node and its ancestor
// chain (root first, node last). Returning false prunes the subtree.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(n, stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// enclosingFuncBody returns the body of the innermost function containing
// the last stack element.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return f.Body
		case *ast.FuncDecl:
			return f.Body
		}
	}
	return nil
}

// within reports whether pos falls inside node's source range.
func within(pos token.Pos, node ast.Node) bool {
	return node != nil && node.Pos() <= pos && pos <= node.End()
}
