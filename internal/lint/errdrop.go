package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkErrDrop flags call sites that discard the error return of the
// wire-format API: dnswire pack/unpack. Those errors are the only signal
// that a packet was malformed; dropping one silently miscounts responses,
// which is precisely the failure a measurement pipeline cannot tolerate.
//
// Beyond the watched package, the rule also tracks the transport seam:
// Transport.SendBatch (declared in wildnet; scanner.Transport is an
// alias), the one way onto the wire, returns the only evidence that a
// probe never left the machine. The scan engine and the single exchange
// deliberately treat send failures as modeled packet loss, but that
// policy must be legible — every dropped SendBatch error needs an
// explicit //lint:allow errdrop annotation stating so, or the rule
// fires. The seam is the interface method: a driver that holds a concrete
// transport (the benchmark timing MemTransport.SendBatch) is measuring
// the transport, not scanning through it.
//
// A call drops the error when it stands alone as a statement, is
// spawned via go/defer, or assigns the error result to the blank
// identifier.
func checkErrDrop(p *Package, cfg *Config, emit func(token.Pos, string, string)) {
	wirePkg := cfg.ModulePath + "/internal/dnswire"
	transportPkg := cfg.ModulePath + "/internal/wildnet"
	for _, f := range p.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if pkg := fn.Pkg().Path(); pkg != wirePkg &&
				!(pkg == transportPkg && fn.Name() == "SendBatch" && isInterfaceMethod(fn)) {
				return true
			}
			errIdx := errResultIndex(fn)
			if errIdx < 0 {
				return true
			}
			name := fn.Pkg().Name() + "." + fn.Name()
			switch parent := stack[len(stack)-2].(type) {
			case *ast.ExprStmt:
				emit(call.Pos(), RuleErrDrop,
					name+" returns an error that is discarded; handle it or assign it")
			case *ast.GoStmt, *ast.DeferStmt:
				emit(call.Pos(), RuleErrDrop,
					name+" returns an error that is discarded by go/defer; wrap it in a closure that checks the error")
			case *ast.AssignStmt:
				// Only the direct call form `a, b := f()` maps results to
				// LHS positions; f() inside a larger expression has its
				// error consumed by that expression.
				if len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(call) &&
					len(parent.Lhs) > errIdx {
					if id, ok := parent.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
						emit(call.Pos(), RuleErrDrop,
							name+"'s error result is assigned to _; handle it (a malformed message must not count as a response)")
					}
				}
			}
			return true
		})
	}
}

// calleeFunc resolves the function or method a call invokes, or nil for
// builtins, function values, and conversions.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isInterfaceMethod reports whether fn is declared by an interface.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// errResultIndex returns the position of the error result in fn's
// signature, or -1 if it returns no error.
func errResultIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	res := sig.Results()
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			return i
		}
	}
	return -1
}
