package analysis

import (
	"go/ast"
)

// globalRandFuncs are the math/rand package-level functions that draw from
// the process-global source. rand.New / rand.NewSource construct injectable
// generators and stay legal (NewSource only when its seed is not
// time-derived).
var globalRandFuncs = map[string]bool{
	"ExpFloat64":  true,
	"Float32":     true,
	"Float64":     true,
	"Int":         true,
	"Int31":       true,
	"Int31n":      true,
	"Int32":       true,
	"Int32N":      true,
	"Int63":       true,
	"Int63n":      true,
	"Int64":       true,
	"Int64N":      true,
	"IntN":        true,
	"Intn":        true,
	"N":           true,
	"NormFloat64": true,
	"Perm":        true,
	"Read":        true,
	"Seed":        true,
	"Shuffle":     true,
	"Uint32":      true,
	"Uint64":      true,
}

// AnalyzerDetRand forbids the global math/rand source and time-derived
// seeds in the deterministic layers: every random draw there must come from
// an injected *rand.Rand so the experiment seed fully determines behaviour
// and replays on both paths of a localization topology see identical
// pseudo-random schedules.
var AnalyzerDetRand = &Analyzer{
	Name:      "detrand",
	Doc:       "no global math/rand functions or time-derived rand.NewSource seeds in deterministic packages, directly or through helper calls",
	Run:       runDetRand,
	RunModule: runDetRandTaint,
}

func runDetRand(p *Pass) {
	if !pathIn(p.RelPath, p.Config.DetScope) {
		return
	}
	p.walkFiles(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkgPath, name := p.pkgFuncName(call)
		if !isRandPkg(pkgPath) {
			return true
		}
		if globalRandFuncs[name] {
			p.Reportf(call.Pos(), "call to global rand.%s; draw from an injected *rand.Rand instead", name)
			return true
		}
		if name == "NewSource" && len(call.Args) > 0 && p.timeDerived(call.Args[0]) {
			p.Reportf(call.Pos(), "rand.NewSource seeded from the wall clock; seeds must be explicit and reproducible")
		}
		return true
	})
}

// timeDerived reports whether expr contains a call into package time or a
// method on a time.Time/time.Duration value (e.g. time.Now().UnixNano()).
func (p *Pass) timeDerived(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if fn := p.calleeFunc(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
			found = true
		}
		return !found
	})
	return found
}
