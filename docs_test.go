package goingwild

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs are the documents held to the code: the design, the README, the
// experiment notes, the Makefile and the verify recipe.
var docs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "Makefile", ".claude/skills/verify/SKILL.md"}

// docIdent is a backticked span of a document that is a dotted Go
// identifier path, optionally called: `pkg.Ident`, `Type.Method`,
// `pkg.Type.Method(x)`.
var docIdent = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\\([^`]*\\))?`")

// fileExts are the extensions of the file names the documents cite.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "txt": true, "yml": true, "mod": true}

// decls is what the module and bench/ declare: package and type names,
// every other declared name, and the functions of _test.go files.
type decls struct {
	qualifiers, declared, testFuncs map[string]bool
}

// declarations parses the module and bench/ for what they declare,
// failing the test when it does not run from the module root.
func declarations(t *testing.T) decls {
	t.Helper()
	d := decls{map[string]bool{}, map[string]bool{}, map[string]bool{}}
	fset := token.NewFileSet()
	for _, root := range []string{".", "internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if path != root && (root == "." || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			d.qualifiers[f.Name.Name] = true
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					d.declared[decl.Name.Name] = true
					if strings.HasSuffix(path, "_test.go") && decl.Recv == nil {
						d.testFuncs[decl.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							d.qualifiers[spec.Name.Name] = true
							// Struct fields and interface methods.
							ast.Inspect(spec.Type, func(n ast.Node) bool {
								if f, ok := n.(*ast.Field); ok {
									for _, id := range f.Names {
										d.declared[id.Name] = true
									}
								}
								return true
							})
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								d.declared[id.Name] = true
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !d.qualifiers["dnswire"] || !d.declared["Reset"] || !d.testFuncs["TestDocsCiteDeclaredTests"] {
		t.Fatal("declarations not found: run from the module root")
	}
	return d
}

// readDoc returns a document with its "What was dropped" section blanked
// line for line: that section names deleted code on purpose.
func readDoc(t *testing.T, doc string) string {
	t.Helper()
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")
	dropped := false
	for i, line := range lines {
		if strings.HasPrefix(line, "## ") {
			dropped = strings.HasPrefix(line, "## What was dropped")
		}
		if dropped {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// TestDocsNameDeclaredIdentifiers holds the documents to the code they
// describe: a backticked `X.Y` whose X is a package or a type declared
// in the module or the benchmark module must name a Y declared there
// too — a function, method, type, field, variable or constant — or the
// document describes code that is gone. The "What was dropped" section
// names deleted code on purpose and is skipped, and so is any X the
// module does not declare (`time.`, `ctx.`, `Mutex.`). A lower-case
// path of three or more segments, or a Y with an underscore, is a
// metric series (`scanner.any.recv`, `lfsr.next_batch_ns_per_probe`),
// and `exchange.go` is a file name.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	d := declarations(t)
	for _, doc := range docs {
		for i, line := range strings.Split(readDoc(t, doc), "\n") {
			for _, m := range docIdent.FindAllStringSubmatch(line, -1) {
				parts := strings.Split(m[1], ".")
				if len(parts) >= 3 && strings.ToLower(m[1]) == m[1] || strings.Contains(parts[1], "_") {
					continue // a metric series
				}
				if fileExts[parts[len(parts)-1]] {
					continue // a file name
				}
				if d.qualifiers[parts[0]] && !d.qualifiers[parts[1]] && !d.declared[parts[1]] {
					t.Errorf("%s:%d names `%s`, but nothing in the module or bench/ declares %s", doc, i+1, m[1], parts[1])
				}
			}
		}
	}
}

// testName is a test, benchmark or fuzz target named in code.
var testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)

// testFlag is a go test selection flag and its pattern, which may sit
// on the next line of a wrapped inline span.
var testFlag = regexp.MustCompile(`-(run|bench|fuzz)[= \t\n]+('[^'\n]*'|"[^"\n]*"|[^\s'"` + "`" + `]+)`)

// inlineCode is a backticked span; it may wrap across lines.
var inlineCode = regexp.MustCompile("`([^`]+)`")

// codeSpan is a piece of a document that is code, at its byte offset.
type codeSpan struct {
	off  int
	text string
}

// codeSpans returns a document's code: its fenced blocks line by line,
// its inline spans outside them and, in the Makefile, every line that is
// not a comment and the inline spans of those that are.
func codeSpans(doc, text string) []codeSpan {
	var spans []codeSpan
	inline := func(start, end int) {
		for _, m := range inlineCode.FindAllStringSubmatchIndex(text[start:end], -1) {
			spans = append(spans, codeSpan{start + m[2], text[start+m[2] : start+m[3]]})
		}
	}
	off, segment, fenced := 0, 0, false
	for _, line := range strings.SplitAfter(text, "\n") {
		switch {
		case doc == "Makefile" && strings.HasPrefix(line, "#"):
			inline(off, off+len(line))
		case doc == "Makefile":
			spans = append(spans, codeSpan{off, line})
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			if !fenced {
				inline(segment, off)
			}
			fenced = !fenced
			segment = off + len(line)
		case fenced:
			spans = append(spans, codeSpan{off, line})
		}
		off += len(line)
	}
	if !fenced && doc != "Makefile" {
		inline(segment, len(text))
	}
	return spans
}

// TestDocsCiteDeclaredTests holds the tests the documents cite to the
// tests that exist. Every `Test…`, `Benchmark…` or `Fuzz…` name in a
// document's code (a backticked span, a fenced block, a Makefile
// command) must be a function of a _test.go file of the module or
// bench/, and every alternative of a -run, -bench or -fuzz pattern must
// match one, as go test matches it — or a renamed test leaves a recipe,
// or a make race line, silently running nothing. '^$', the idiom that
// selects no test beside -bench, is the one pattern exempt. "What was
// dropped" is skipped.
func TestDocsCiteDeclaredTests(t *testing.T) {
	d := declarations(t)
	for _, doc := range docs {
		text := readDoc(t, doc)
		line := func(off int) int { return strings.Count(text[:off], "\n") + 1 }
		for _, span := range codeSpans(doc, text) {
			rest := []byte(span.text)
			for _, m := range testFlag.FindAllStringSubmatchIndex(span.text, -1) {
				flag, pattern := span.text[m[2]:m[3]], strings.Trim(span.text[m[4]:m[5]], `'"`)
				for i := m[4]; i < m[5]; i++ {
					rest[i] = ' '
				}
				// go test splits a pattern at slashes into one level per
				// subtest; only the top level names a declared function.
				top, _, _ := strings.Cut(pattern, "/")
				for _, alt := range strings.Split(top, "|") {
					if alt == "^$" {
						continue
					}
					if !matchesTest(t, d, flag, alt) {
						t.Errorf("%s:%d: -%s pattern %q: %q matches no declared %s function", doc, line(span.off+m[4]), flag, pattern, alt, strings.Join(selects[flag], "/"))
					}
				}
			}
			for _, m := range testName.FindAllIndex(rest, -1) {
				if name := string(rest[m[0]:m[1]]); !d.testFuncs[name] {
					t.Errorf("%s:%d cites %s, but no _test.go in the module or bench/ declares it", doc, line(span.off+m[0]), name)
				}
			}
		}
	}
}

// selects maps a go test selection flag to the name prefixes of the
// functions its pattern selects.
var selects = map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}

// matchesTest reports whether a pattern alternative of -run, -bench or
// -fuzz selects a declared function of that kind.
func matchesTest(t *testing.T, d decls, flag, alt string) bool {
	re, err := regexp.Compile(alt)
	if err != nil {
		t.Errorf("-%s pattern %q: %v", flag, alt, err)
		return true
	}
	for name := range d.testFuncs {
		for _, p := range selects[flag] {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
