package analysis

import (
	"go/ast"
	"go/types"
)

// calleeFuncOf resolves a call expression to the package-level function or
// method object it invokes, or nil for builtins, conversions and calls
// through function-typed variables. Free-function form usable from both
// package passes and module passes.
func calleeFuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fnObj, _ := info.Uses[id].(*types.Func)
	return fnObj
}

// calleeFunc is the Pass-bound form of calleeFuncOf.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	return calleeFuncOf(p.Info, call)
}

// pkgFuncName returns "path.Name" for a call to a package-level function,
// or "" otherwise.
func (p *Pass) pkgFuncName(call *ast.CallExpr) (pkgPath, name string) {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// isRandPkg reports whether a package path is one of the math/rand flavours.
func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// exprUsesObj reports whether expr references obj anywhere inside it.
func (p *Pass) exprUsesObj(expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
