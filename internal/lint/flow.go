package lint

import (
	"go/ast"
	"go/types"
)

// This file is the dataflow half of the analysis core: a forward worklist
// solver over per-block lattices, plus the expression and type queries
// fsynccheck asks of the code it walks. (hotpath needs only cfg.go.)

// flowState is one analyzer-defined lattice element. nil means ⊥
// (unreached).
type flowState interface{}

// flowProblem describes one forward dataflow analysis over a CFG.
type flowProblem struct {
	cfg *CFG
	// entry is the state on entry to cfg.Entry.
	entry flowState
	// transfer folds one block's nodes into the incoming state and
	// returns the outgoing state. It must not mutate in.
	transfer func(b *Block, in flowState) flowState
	// join merges two non-nil states (set union for may-analyses).
	join func(a, b flowState) flowState
	// equal reports lattice-element equality, for fixpoint detection.
	equal func(a, b flowState) bool
}

// solveForward runs the worklist to a fixpoint and returns each block's
// incoming state (nil for unreachable blocks). Iteration order is block
// creation order, so the result — and anything an analyzer emits during
// its final transfer pass — is deterministic.
func solveForward(p flowProblem) map[*Block]flowState {
	in := map[*Block]flowState{p.cfg.Entry: p.entry}
	// Round-robin to fixpoint: functions are small (tens of blocks), so
	// a priority worklist buys nothing over deterministic sweeps.
	for changed := true; changed; {
		changed = false
		for _, b := range p.cfg.Blocks {
			inB, ok := in[b]
			if !ok {
				continue
			}
			out := p.transfer(b, inB)
			for _, s := range b.Succs {
				old, seen := in[s]
				if !seen {
					in[s] = out
					changed = true
					continue
				}
				merged := p.join(old, out)
				if !p.equal(old, merged) {
					in[s] = merged
					changed = true
				}
			}
		}
	}
	return in
}

// ---- shared expression and type queries ----

// exprText renders a short human-readable form of an access path for
// messages (best effort; falls back to "expr" for exotic shapes).
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.StarExpr:
		return exprText(e.X)
	case *ast.UnaryExpr:
		return exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "()"
	}
	return "expr"
}

// namedIn reports whether t (after unwrapping pointers) is the named type
// pkg.name.
func namedIn(t types.Type, pkg, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == name
}

// pkgFuncCall reports whether call invokes pkgPath.name (a package-level
// function accessed through its package name) and returns the selector.
func pkgFuncCall(p *Package, call *ast.CallExpr, pkgPath string) (*ast.SelectorExpr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return nil, "", false
	}
	return sel, sel.Sel.Name, true
}

// funcScopes yields every function in the package — declarations and
// literals — with its body, so flow rules analyze closures as functions
// in their own right. decl is nil for literals; name is a best-effort
// display name.
type funcScope struct {
	decl *ast.FuncDecl
	lit  *ast.FuncLit
	name string
	body *ast.BlockStmt
}

func funcScopes(p *Package) []funcScope {
	var out []funcScope
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, funcScope{decl: fd, name: fd.Name.Name, body: fd.Body})
			outer := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, funcScope{lit: lit, name: outer + ".func", body: lit.Body})
				}
				return true
			})
		}
	}
	return out
}
