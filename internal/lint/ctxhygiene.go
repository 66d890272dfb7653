package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkCtxHygiene enforces the context-propagation discipline the stage
// engine depends on. Cancellation only reaches the scan hot paths if
// every layer threads the caller's context explicitly, so the rule
// polices the three ways a context goes stale or ambient:
//
//   - a context.Context struct field outlives the call it belongs to and
//     detaches cancellation from the call tree; pass ctx as a parameter
//     instead;
//   - a ctx parameter anywhere but first hides the function's
//     cancellation surface from readers and callers;
//   - context.Background() manufactures an uncancellable root. Only
//     package main (cmd/) owns roots — everything else must accept one.
//     Tests are exempt by construction: the loader skips _test.go files.
func checkCtxHygiene(p *Package, cfg *Config, emit func(token.Pos, string, string)) {
	// cmd/ binaries are where roots belong.
	if p.Types.Name() == "main" || strings.HasPrefix(p.Path, cfg.ModulePath+"/cmd/") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.StructType:
				for _, field := range s.Fields.List {
					if isContextType(p.Info.Types[field.Type].Type) {
						emit(field.Pos(), RuleCtxHygiene,
							"context.Context stored in a struct field detaches cancellation from the call tree; pass ctx as the first parameter instead")
					}
				}
			case *ast.FuncType:
				checkCtxParamFirst(p, s, emit)
			case *ast.CallExpr:
				checkCtxRoot(p, s, emit)
			}
			return true
		})
	}
}

// checkCtxParamFirst flags a context.Context parameter that is not the
// function's first parameter.
func checkCtxParamFirst(p *Package, ft *ast.FuncType, emit func(token.Pos, string, string)) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		// An anonymous parameter group still occupies one position.
		width := len(field.Names)
		if width == 0 {
			width = 1
		}
		if isContextType(p.Info.Types[field.Type].Type) && idx != 0 {
			emit(field.Pos(), RuleCtxHygiene,
				"ctx must be the first parameter so the cancellation surface is visible at every call site")
		}
		idx += width
	}
}

// checkCtxRoot flags context.Background and context.TODO calls: new
// uncancellable roots belong to package main only.
func checkCtxRoot(p *Package, call *ast.CallExpr, emit func(token.Pos, string, string)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "context" {
		return
	}
	if name := sel.Sel.Name; name == "Background" || name == "TODO" {
		emit(call.Pos(), RuleCtxHygiene,
			"context."+name+" creates an uncancellable root outside cmd/; accept a ctx parameter from the caller")
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
