package analysis

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runModuleFixture loads a committed fixture module under testdata/ through
// the full audit driver and compares surviving diagnostics against the
// `// want "substr"` comments across every file of the tree.
func runModuleFixture(t *testing.T, name string, analyzers []*Analyzer, cfg *Config) *RunResult {
	t.Helper()
	dir := filepath.Join("testdata", name)
	res, err := RunAudit(dir, []string{"./..."}, analyzers, cfg)
	if err != nil {
		t.Fatalf("audit %s: %v", dir, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]string)
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		fset := token.NewFileSet()
		file, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		abs, _ := filepath.Abs(path)
		for _, w := range parseWants(t, fset, file) {
			k := key{abs, w.line}
			wants[k] = append(wants[k], w.sub)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	matched := make(map[int]bool)
	for k, subs := range wants {
		for _, sub := range subs {
			found := false
			for i, d := range res.Diagnostics {
				if matched[i] || d.File != k.file || d.Line != k.line {
					continue
				}
				if strings.Contains(d.Message, sub) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s:%d: expected diagnostic containing %q, none reported", k.file, k.line, sub)
			}
		}
	}
	for i, d := range res.Diagnostics {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: %s", name, d)
		}
	}
	return res
}

// taintFixtureConfig scopes the taint fixture module: sim is deterministic,
// rt is the sanctioned real-time layer, util is unscoped helper territory.
func taintFixtureConfig() *Config {
	return &Config{
		DetScope:      []string{"sim"},
		WalltimeAllow: []string{"rt"},
	}
}

// TestTaintModuleFixture pins the taint-mode contract end to end:
// multi-package chains to both sink families, interface-call conservatism,
// sanctioned-layer immunity, call-site suppression, suppressed-sink
// re-reporting at direct callers, and propagation stopping at scoped
// frames.
func TestTaintModuleFixture(t *testing.T) {
	res := runModuleFixture(t, "mod_taint",
		[]*Analyzer{AnalyzerDetRand, AnalyzerWalltime}, taintFixtureConfig())

	// Every taint diagnostic must carry a structured path ending in the
	// sink operation.
	for _, d := range res.Diagnostics {
		if len(d.Path) < 2 {
			t.Errorf("taint diagnostic without a path: %s", d)
			continue
		}
		last := d.Path[len(d.Path)-1].Func
		if !strings.HasPrefix(last, "time.") && !strings.HasPrefix(last, "rand.") {
			t.Errorf("path does not end in a sink op: %s", d)
		}
		if !strings.Contains(d.Message, "[path:") {
			t.Errorf("message missing rendered path: %s", d)
		}
	}
}

// TestTaintPathDepth pins the multi-hop witness: the chain through
// util.Indirect must show both unscoped frames before the sink.
func TestTaintPathDepth(t *testing.T) {
	res := runModuleFixture(t, "mod_taint",
		[]*Analyzer{AnalyzerDetRand, AnalyzerWalltime}, taintFixtureConfig())
	found := false
	for _, d := range res.Diagnostics {
		if !strings.Contains(d.Message, "util.Indirect") {
			continue
		}
		found = true
		var funcs []string
		for _, s := range d.Path {
			funcs = append(funcs, s.Func)
		}
		joined := strings.Join(funcs, " → ")
		for _, frame := range []string{"sim.Run", "util.Indirect", "util.Draw", "rand.Float64"} {
			if !strings.Contains(joined, frame) {
				t.Errorf("witness chain missing frame %s: %s", frame, joined)
			}
		}
	}
	if !found {
		t.Fatal("no diagnostic for the util.Indirect call site")
	}
}

// TestCacheKeyModuleFixture pins encoder field coverage and stamp
// constancy over a fixture module with its own simcache package.
func TestCacheKeyModuleFixture(t *testing.T) {
	runModuleFixture(t, "mod_cachekey",
		[]*Analyzer{AnalyzerCacheKey}, &Config{})
}

// TestCacheKeyGoldenLifecycle drives the fingerprint golden through its
// states: absent (disabled), fresh (clean), struct-changed-without-bump
// (the guarded failure), and bumped-but-stale (regenerate).
func TestCacheKeyGoldenLifecycle(t *testing.T) {
	dir := filepath.Join("testdata", "mod_cachekey")
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	m := BuildModule(pkgs[0].Fset, pkgs)

	goldenDiags := func(goldenPath string) []Diagnostic {
		cfg := &Config{CacheKeyGolden: goldenPath}
		res, err := RunAudit(dir, []string{"./..."}, []*Analyzer{AnalyzerCacheKey}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []Diagnostic
		for _, d := range res.Diagnostics {
			if strings.Contains(d.Message, "golden") || strings.Contains(d.Message, "schema-stamp") {
				out = append(out, d)
			}
		}
		return out
	}

	golden := filepath.Join(t.TempDir(), "cachekey.golden")

	// Absent golden: fingerprint checking is off.
	if ds := goldenDiags(golden); len(ds) != 0 {
		t.Fatalf("absent golden should disable the check, got %v", ds)
	}

	// Fresh golden: clean.
	content := FormatCacheKeyGolden(m)
	if err := os.WriteFile(golden, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if ds := goldenDiags(golden); len(ds) != 0 {
		t.Fatalf("fresh golden should be clean, got %v", ds)
	}
	for _, typ := range []string{"BrokenSpec", "CleanSpec"} {
		if !strings.Contains(content, typ) {
			t.Fatalf("golden missing spec type %s:\n%s", typ, content)
		}
	}

	// Struct changed, stamp unchanged: tamper the fingerprint column.
	lines := strings.Split(content, "\n")
	for i, l := range lines {
		if strings.Contains(l, "BrokenSpec") {
			parts := strings.Fields(l)
			parts[1] = strings.Repeat("0", len(parts[1]))
			lines[i] = strings.Join(parts, " ")
		}
	}
	if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	ds := goldenDiags(golden)
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "changed without a schema-stamp bump") {
		t.Fatalf("want one no-bump diagnostic, got %v", ds)
	}

	// Stamp moved too: the golden is merely stale.
	lines = strings.Split(content, "\n")
	for i, l := range lines {
		if strings.Contains(l, "BrokenSpec") {
			parts := strings.Fields(l)
			parts[1] = strings.Repeat("0", len(parts[1]))
			parts[2] = parts[2] + "-old"
			lines[i] = strings.Join(parts, " ")
		}
	}
	if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	ds = goldenDiags(golden)
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "-write-golden") {
		t.Fatalf("want one stale-golden diagnostic, got %v", ds)
	}

	// Entry deleted: must demand regeneration.
	var kept []string
	for _, l := range strings.Split(content, "\n") {
		if !strings.Contains(l, "BrokenSpec") {
			kept = append(kept, l)
		}
	}
	if err := os.WriteFile(golden, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	ds = goldenDiags(golden)
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "no entry") {
		t.Fatalf("want one missing-entry diagnostic, got %v", ds)
	}
}

// TestRepoGoldenInSync fails when a spec struct changes without
// regenerating the committed golden — the same gate CI applies, pinned as
// a test so `go test ./...` catches it before lint does.
func TestRepoGoldenInSync(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	root := filepath.Join("..", "..")
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	m := BuildModule(pkgs[0].Fset, pkgs)
	want := FormatCacheKeyGolden(m)
	got, err := os.ReadFile(filepath.Join(root, DefaultConfig().CacheKeyGolden))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("committed cachekey golden is stale; run `go run ./cmd/wehey-lint -write-golden ./...`\n--- committed\n%s--- current\n%s", got, want)
	}
}

// TestCallGraphShape pins structural properties of the module graph over
// the taint fixture: node ordering, labels, edge resolution, and stats.
func TestCallGraphShape(t *testing.T) {
	dir := filepath.Join("testdata", "mod_taint")
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	m := BuildModule(pkgs[0].Fset, pkgs)

	st := m.Stats()
	if st.Packages != 3 {
		t.Fatalf("want 3 packages, got %d", st.Packages)
	}
	labels := make(map[string]*FuncNode)
	for _, n := range m.Nodes() {
		labels[m.FuncLabel(n.Fn)] = n
	}
	run := labels["sim.Run"]
	if run == nil {
		t.Fatalf("sim.Run not in graph; have %v", keysOf(labels))
	}
	if len(run.Calls) != 5 {
		t.Fatalf("sim.Run should have 5 static callees (4 util + 1 rt), got %d", len(run.Calls))
	}
	iface := labels["sim.FromIface"]
	if iface == nil || len(iface.Calls) != 0 {
		t.Fatalf("interface call must produce no edge, got %+v", iface)
	}
	draw := labels["util.Draw"]
	if draw == nil || len(draw.RandSinks) != 1 {
		t.Fatalf("util.Draw should carry one rand sink, got %+v", draw)
	}
	stamp := labels["util.Stamp"]
	if stamp == nil || len(stamp.WallSinks) != 1 {
		t.Fatalf("util.Stamp should carry one wall sink, got %+v", stamp)
	}
}

func keysOf(m map[string]*FuncNode) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestWhyExplains pins the -why plumbing over the taint fixture.
func TestWhyExplains(t *testing.T) {
	dir := filepath.Join("testdata", "mod_taint")
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	m := BuildModule(pkgs[0].Fset, pkgs)
	reports := m.Why("util.Indirect")
	if len(reports) != 1 {
		t.Fatalf("want one match for util.Indirect, got %d", len(reports))
	}
	if !strings.Contains(reports[0], "reaches global math/rand") ||
		!strings.Contains(reports[0], "rand.Float64") {
		t.Fatalf("why output missing rand chain:\n%s", reports[0])
	}
	if m.Why("NoSuchFunction") != nil {
		t.Fatal("nonexistent function must yield no reports")
	}
}

// TestDiagnosticJSONSchema pins the wire shape of findings, including the
// structured taint path, so downstream tooling can rely on it.
func TestDiagnosticJSONSchema(t *testing.T) {
	d := Diagnostic{
		File: "a.go", Line: 3, Col: 7,
		Analyzer: "walltime", Message: "m",
		Path: []PathStep{
			{Func: "pkg.F", File: "a.go", Line: 3, Col: 7},
			{Func: "time.Now", File: "b.go", Line: 9, Col: 2},
		},
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"a.go","line":3,"col":7,"analyzer":"walltime","message":"m",` +
		`"path":[{"func":"pkg.F","file":"a.go","line":3,"col":7},{"func":"time.Now","file":"b.go","line":9,"col":2}]}`
	if string(b) != want {
		t.Fatalf("diagnostic JSON schema drifted:\ngot  %s\nwant %s", b, want)
	}

	// Pathless diagnostics must omit the key entirely.
	b, err = json.Marshal(Diagnostic{File: "a.go", Line: 1, Col: 1, Analyzer: "floateq", Message: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "path") {
		t.Fatalf("pathless diagnostic must omit path key: %s", b)
	}
}

// TestDeadIgnoreAudit pins the three directive fates over a temp module:
// unknown analyzer → dead, known+enabled+unmatched → dead, matched → live
// and listed.
func TestDeadIgnoreAudit(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/deadmod\n\ngo 1.22\n",
		"internal/netsim/a.go": `package netsim

import "time"

func live() {
	//lint:ignore walltime justified test suppression
	_ = time.Now()
}

func deadKnown() {
	//lint:ignore walltime nothing on the next line violates anything
	_ = 1 + 1
}

//lint:ignore errcheck stale baggage from another linter
func deadUnknown() {}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	res, err := RunAudit(dir, []string{"./..."}, All(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range res.Diagnostics {
		got = append(got, d.Analyzer+":"+d.Message)
	}
	if len(res.Diagnostics) != 2 {
		t.Fatalf("want exactly 2 dead-directive findings, got %v", got)
	}
	for _, d := range res.Diagnostics {
		if d.Analyzer != "deadignore" {
			t.Fatalf("unexpected analyzer in %v", got)
		}
	}
	foundUnknown, foundUnused := false, false
	for _, d := range res.Diagnostics {
		if strings.Contains(d.Message, "unknown analyzer") {
			foundUnknown = true
		}
		if strings.Contains(d.Message, "suppresses nothing") {
			foundUnused = true
		}
	}
	if !foundUnknown || !foundUnused {
		t.Fatalf("want one unknown-analyzer and one suppresses-nothing finding, got %v", got)
	}

	if len(res.Suppressions) != 1 {
		t.Fatalf("want exactly one live suppression, got %v", res.Suppressions)
	}
	s := res.Suppressions[0]
	if s.Analyzer != "walltime" || s.Reason != "justified test suppression" {
		t.Fatalf("wrong live suppression: %+v", s)
	}
}

// TestDeadIgnoreSuppressible: a deliberate keeper can be excused with a
// deadignore directive, and a pointless deadignore directive is itself dead.
func TestDeadIgnoreSuppressible(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/deadmod2\n\ngo 1.22\n",
		"internal/netsim/a.go": `package netsim

func kept() {
	//lint:ignore deadignore directive below is exercised by an external tool
	//lint:ignore walltime kept for a generator that injects time.Now here
	_ = 1 + 1
}

//lint:ignore deadignore this one excuses nothing and must be reported
func pointless() {}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunAudit(dir, []string{"./..."}, All(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 1 {
		t.Fatalf("want exactly one finding (the pointless deadignore), got %v", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Analyzer != "deadignore" || !strings.Contains(d.Message, "lint:ignore deadignore suppresses nothing") {
		t.Fatalf("wrong finding: %s", d)
	}
}

func TestPktLifeFixture(t *testing.T) {
	runFixture(t, AnalyzerPktLife, "internal/netsim", "pktlife.go")
}

// Out of scope: the same lifecycle violations outside PktLifeScope are not
// the freelist contract and stay quiet.
func TestPktLifeOutOfScope(t *testing.T) {
	runFixtureExpectClean(t, AnalyzerPktLife, "internal/stats", "pktlife_scope.go")
}

func TestLockHeldFixture(t *testing.T) {
	runFixture(t, AnalyzerLockHeld, "internal/service", "lockheld.go")
}

// A mutex reached through a local alias (sh := &s.shards[i]): blocking
// journal appends or wakeup sends inside its critical section are
// flagged; append-after-unlock, non-blocking wakeup hints, and a
// comparison made between two critical sections stay quiet.
func TestLockHeldShardFixture(t *testing.T) {
	runFixture(t, AnalyzerLockHeld, "internal/service", "lockheld_shard.go")
}

// Out of scope: identical lock-then-block code outside LockHeldScope is
// not audited.
func TestLockHeldOutOfScope(t *testing.T) {
	runFixtureExpectClean(t, AnalyzerLockHeld, "internal/stats", "lockheld_scope.go")
}
