package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runFixture type-checks one testdata file as a single-file package, runs
// the analyzer over it under the given module-relative path, and compares
// the surviving diagnostics against the file's `// want "substring"`
// comments (one or more quoted substrings per flagged line).
func runFixture(t *testing.T, a *Analyzer, relPath, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("fixture/"+name, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	pkg := &Package{
		ImportPath: "fixture/" + name,
		RelPath:    relPath,
		Fset:       fset,
		Files:      []*ast.File{file},
		Pkg:        tpkg,
		Info:       info,
	}
	got := RunPackage(pkg, []*Analyzer{a}, DefaultConfig())
	want := parseWants(t, fset, file)

	type hit struct {
		line int
		sub  string
	}
	matched := make(map[int]bool)
	var unmatched []hit
	for _, w := range want {
		found := false
		for i, d := range got {
			if matched[i] || d.Line != w.line {
				continue
			}
			if strings.Contains(d.Message, w.sub) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			unmatched = append(unmatched, hit{w.line, w.sub})
		}
	}
	for _, u := range unmatched {
		t.Errorf("%s:%d: expected diagnostic containing %q, none reported", name, u.line, u.sub)
	}
	for i, d := range got {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: %s", name, d)
		}
	}
}

type wantComment struct {
	line int
	sub  string
}

var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// parseWants reads `// want "substr"` and `/* want "substr" */` comments.
// The block form exists so a want can share a line with a //-directive
// under test (a line comment would swallow it).
func parseWants(t *testing.T, fset *token.FileSet, file *ast.File) []wantComment {
	t.Helper()
	var out []wantComment
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSuffix(text, "*/")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			quoted := wantRe.FindAllString(text, -1)
			if len(quoted) == 0 {
				t.Fatalf("%s: malformed want comment: %s", fset.Position(c.Pos()), c.Text)
			}
			for _, q := range quoted {
				sub, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s: bad want string %s: %v", fset.Position(c.Pos()), q, err)
				}
				out = append(out, wantComment{line: line, sub: sub})
			}
		}
	}
	return out
}

func TestDetRandFixture(t *testing.T) {
	runFixture(t, AnalyzerDetRand, "internal/netsim", "detrand.go")
}

// Out of scope: global-rand code under a layer outside DetScope
// reports nothing — detrand only binds the simulated/experiment packages.
func TestDetRandOutOfScope(t *testing.T) {
	runFixtureExpectClean(t, AnalyzerDetRand, "cmd/wehey-lint", "detrand_scope.go")
}

func TestWalltimeFixture(t *testing.T) {
	runFixture(t, AnalyzerWalltime, "internal/netsim", "walltime.go")
}

// Allowlist: identical wall-clock reads under internal/transport are the
// sanctioned real-time layer and report nothing.
func TestWalltimeAllowlist(t *testing.T) {
	runFixtureExpectClean(t, AnalyzerWalltime, "internal/transport", "walltime_allow.go")
}

// Service layer: internal/service sits inside DetScope and outside
// WalltimeAllow. The sanctioned scheduler patterns — injected clock,
// per-job seeded jitter — pass both analyzers clean, and the matching
// violations are caught.
func TestServiceCleanUnderWalltime(t *testing.T) {
	runFixtureExpectClean(t, AnalyzerWalltime, "internal/service", "service_clean.go")
}

func TestServiceCleanUnderDetRand(t *testing.T) {
	runFixtureExpectClean(t, AnalyzerDetRand, "internal/service", "service_clean.go")
}

func TestServiceWalltimeViolation(t *testing.T) {
	runFixture(t, AnalyzerWalltime, "internal/service", "service_walltime.go")
}

func TestServiceDetRandViolation(t *testing.T) {
	runFixture(t, AnalyzerDetRand, "internal/service", "service_detrand.go")
}

// Fleet layer: internal/fleet sits inside DetScope and outside
// WalltimeAllow. The follower's sanctioned patterns — injected clock
// timers, count-pure posteriors — pass both analyzers clean, and the
// matching violations are caught.
func TestFleetCleanUnderWalltime(t *testing.T) {
	runFixtureExpectClean(t, AnalyzerWalltime, "internal/fleet", "fleet_clean.go")
}

func TestFleetCleanUnderDetRand(t *testing.T) {
	runFixtureExpectClean(t, AnalyzerDetRand, "internal/fleet", "fleet_clean.go")
}

func TestFleetDetRandViolation(t *testing.T) {
	runFixture(t, AnalyzerDetRand, "internal/fleet", "fleet_detrand.go")
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, AnalyzerMapOrder, "internal/experiments", "maporder.go")
}

func TestSeedIdentFixture(t *testing.T) {
	runFixture(t, AnalyzerSeedIdent, "internal/experiments", "seedident.go")
}

func TestFloatEqFixture(t *testing.T) {
	runFixture(t, AnalyzerFloatEq, "internal/stats", "floateq.go")
}

func TestIgnoreDirectives(t *testing.T) {
	runFixture(t, AnalyzerFloatEq, "internal/stats", "ignore.go")
}

// runFixtureExpectClean asserts the analyzer reports nothing for the file.
func runFixtureExpectClean(t *testing.T, a *Analyzer, relPath, name string) {
	t.Helper()
	runFixture(t, a, relPath, name)
}

// TestSortDiagnostics pins the driver's ordering contract.
func TestSortDiagnostics(t *testing.T) {
	ds := []Diagnostic{
		{File: "b.go", Line: 1, Col: 1, Analyzer: "walltime", Message: "m"},
		{File: "a.go", Line: 2, Col: 1, Analyzer: "floateq", Message: "m"},
		{File: "a.go", Line: 2, Col: 1, Analyzer: "detrand", Message: "m"},
		{File: "a.go", Line: 1, Col: 9, Analyzer: "detrand", Message: "m"},
		{File: "a.go", Line: 1, Col: 2, Analyzer: "detrand", Message: "m"},
	}
	sortDiagnostics(ds)
	var gotOrder []string
	for _, d := range ds {
		gotOrder = append(gotOrder, fmt.Sprintf("%s:%d:%d:%s", d.File, d.Line, d.Col, d.Analyzer))
	}
	wantOrder := []string{
		"a.go:1:2:detrand",
		"a.go:1:9:detrand",
		"a.go:2:1:detrand",
		"a.go:2:1:floateq",
		"b.go:1:1:walltime",
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("order mismatch at %d: got %v want %v", i, gotOrder, wantOrder)
		}
	}
}
