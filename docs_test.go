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

// docIdent is a backticked span of a document that is a dotted Go
// identifier path, optionally called: `pkg.Ident`, `Type.Method`,
// `pkg.Type.Method(x)`.
var docIdent = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\\([^`]*\\))?`")

// fileExts are the extensions of the file names the documents cite.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "txt": true, "yml": true, "mod": true}

// TestDocsNameDeclaredIdentifiers holds DESIGN.md and README.md to the
// code they describe: a backticked `X.Y` whose X is a package or a type
// declared in the module or the benchmark module must name a Y declared
// there too — a function, method, type, field, variable or constant —
// or the document describes code that is gone. The "What was dropped"
// section names deleted code on purpose and is skipped, and so is any
// X the module does not declare (`time.`, `ctx.`, `Mutex.`). A
// lower-case path of three or more segments, or a Y with an
// underscore, is a metric series (`scanner.any.recv`,
// `lfsr.next_batch_ns_per_probe`), and `exchange.go` is a file name.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	qualifiers := map[string]bool{} // package and type names
	declared := map[string]bool{}   // every other declared name
	fset := token.NewFileSet()
	for _, root := range []string{".", "internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (root == "." || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
			qualifiers[f.Name.Name] = true
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declared[d.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							qualifiers[spec.Name.Name] = true
							// Struct fields and interface methods.
							ast.Inspect(spec.Type, func(n ast.Node) bool {
								if f, ok := n.(*ast.Field); ok {
									for _, id := range f.Names {
										declared[id.Name] = true
									}
								}
								return true
							})
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								declared[id.Name] = true
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
	if !qualifiers["dnswire"] || !declared["Reset"] {
		t.Fatal("declarations not found: run from the module root")
	}

	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		dropped := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(line, "## ") {
				dropped = strings.HasPrefix(line, "## What was dropped")
			}
			if dropped {
				continue
			}
			for _, m := range docIdent.FindAllStringSubmatch(line, -1) {
				parts := strings.Split(m[1], ".")
				if len(parts) >= 3 && strings.ToLower(m[1]) == m[1] || strings.Contains(parts[1], "_") {
					continue // a metric series
				}
				if fileExts[parts[len(parts)-1]] {
					continue // a file name
				}
				if qualifiers[parts[0]] && !qualifiers[parts[1]] && !declared[parts[1]] {
					t.Errorf("%s:%d names `%s`, but nothing in the module or bench/ declares %s", doc, i+1, m[1], parts[1])
				}
			}
		}
	}
}
