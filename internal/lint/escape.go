package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
)

// The zero-allocation contract: a function annotated
//
//	//lint:hotpath <reason>
//
// (doc comment or the line directly above the declaration) must not
// allocate. The compiler enforces it: `make lint-escape` builds the
// module with -gcflags=-m and CheckEscapeLog fails on any heap
// allocation the escape analysis reports inside an annotated function.
// The *Allocs tests measure the same contract at run time, which also
// catches append growth (-m does not report growslice). DESIGN.md
// ("The zero-alloc contract") lists what each check sees.

// HotpathSpan is the source extent of one annotated function, for the
// -escape-log cross-check.
type HotpathSpan struct {
	File      string
	FuncName  string
	StartLine int
	EndLine   int
}

// HotpathSpans lists the //lint:hotpath functions of one package in
// source order. An
// annotation attached to anything but a function declaration comes
// back as a finding: a detached contract enforces nothing.
func HotpathSpans(p *Package) ([]HotpathSpan, []Finding) {
	var spans []HotpathSpan
	var detached []Finding
	for _, f := range p.Files {
		anns := hotpathAnnotations(p, f)
		used := map[int]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			line, ok := annotationFor(p, anns, fd)
			if !ok {
				continue
			}
			used[line] = true
			start := p.Fset.Position(fd.Pos())
			spans = append(spans, HotpathSpan{
				File:      start.Filename,
				FuncName:  fd.Name.Name,
				StartLine: start.Line,
				EndLine:   p.Fset.Position(fd.End()).Line,
			})
		}
		for line, pos := range anns {
			if !used[line] {
				detached = append(detached, Finding{Pos: p.Fset.Position(pos), Rule: RuleHotPath,
					Msg: "//lint:hotpath annotation is not attached to a function declaration; move it onto the function's doc comment"})
			}
		}
	}
	SortFindings(detached)
	return spans, detached
}

// hotpathAnnotations maps comment line -> position for every
// //lint:hotpath comment in the file.
func hotpathAnnotations(p *Package, f *ast.File) map[int]token.Pos {
	out := map[int]token.Pos{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//lint:hotpath")
			if !ok {
				continue
			}
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // some other //lint:hotpathX marker
			}
			out[p.Fset.Position(c.Pos()).Line] = c.Pos()
		}
	}
	return out
}

// annotationFor reports whether fd carries a hotpath annotation: on any
// line of its doc comment, or the line directly above the declaration.
func annotationFor(p *Package, anns map[int]token.Pos, fd *ast.FuncDecl) (int, bool) {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			line := p.Fset.Position(c.Pos()).Line
			if _, ok := anns[line]; ok {
				return line, true
			}
		}
	}
	declLine := p.Fset.Position(fd.Pos()).Line
	if _, ok := anns[declLine-1]; ok {
		return declLine - 1, true
	}
	return 0, false
}

// CheckEscapeLog holds annotated functions to the compiler's escape
// analysis: log is the stderr of `go build -gcflags=-m`, and any
// heap-allocation diagnostic ("escapes to heap", "moved to heap") whose
// position falls inside an annotated function is a finding.
// Informational diagnostics (inlining, leaking param, "does not
// escape") pass. Relative paths in the log are resolved against dir,
// the directory the build ran in.
func CheckEscapeLog(spans []HotpathSpan, log []byte, dir string) []Finding {
	var out []Finding
	for _, line := range strings.Split(string(log), "\n") {
		file, lineNo, col, msg, ok := parseDiagnostic(strings.TrimSpace(line))
		if !ok {
			continue
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		for _, sp := range spans {
			if sp.File == file && sp.StartLine <= lineNo && lineNo <= sp.EndLine {
				out = append(out, Finding{
					Pos:  token.Position{Filename: sp.File, Line: lineNo, Column: col},
					Rule: RuleHotPath,
					Msg:  "compiler escape analysis reports an allocation inside //lint:hotpath " + sp.FuncName + ": " + msg,
				})
			}
		}
	}
	SortFindings(out)
	return out
}

// parseDiagnostic splits "path:line:col: msg" (column optional).
func parseDiagnostic(line string) (file string, lineNo, col int, msg string, ok bool) {
	pos, msg, ok := strings.Cut(line, ": ")
	if !ok {
		return "", 0, 0, "", false
	}
	file, num, ok := cutLastColon(pos)
	if !ok {
		return "", 0, 0, "", false
	}
	if f, l, ok := cutLastColon(file); ok {
		return f, l, num, msg, true
	}
	return file, num, 0, msg, true
}

// cutLastColon splits "s:N" into s and the number N.
func cutLastColon(s string) (string, int, bool) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return "", 0, false
	}
	return s[:i], n, true
}
