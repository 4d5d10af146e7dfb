package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is recorded with every result file: numbers from different
// boxes, core counts or filesystems do not compare.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	WorkDir    string `json:"work_dir"`
	Filesystem string `json:"filesystem"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

// runRecord is one workload run: its arguments and its result line.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Smoke    bool    `json:"smoke,omitempty"`
	resultLine
}

// resultFile is what `all` and `repeat` write and `compare` reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

func currentEnvironment(dir string) environment {
	if dir == "" {
		dir = filepath.Join(outDir, "work")
	}
	os.MkdirAll(dir, 0o755) // fsType reports "unknown" if this failed
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		WorkDir:    dir,
		Filesystem: fsType(dir),
		Commit:     commit,
		Network:    "loopback (127.0.0.1), not a real link",
	}
}

// suiteFlags are the arguments `all` and `repeat` share.
type suiteFlags struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	dir     string
	out     string
}

func (s *suiteFlags) register(fs *flag.FlagSet, defaultOut string) {
	fs.Int64Var(&s.seed, "seed", 1, "workload seed")
	fs.Float64Var(&s.seconds, "seconds", 10, "timed seconds per workload")
	fs.BoolVar(&s.trace, "trace", false, "traced run: per-layer metrics")
	fs.BoolVar(&s.smoke, "smoke", false, "1/20 size, checks on, no timing claims")
	fs.StringVar(&s.dir, "dir", "", "directory for journals and sim caches (default "+outDir+"/work)")
	fs.StringVar(&s.out, "out", filepath.Join(outDir, defaultOut), "result file")
}

// runChild runs one workload in its own process — a fresh runtime, heap
// and page-cache footprint per workload — echoing its output and parsing
// the result line it prints last.
func runChild(s suiteFlags, workload string, seed int64, echo io.Writer) (runRecord, error) {
	rec := runRecord{Workload: workload, Seed: seed, Seconds: s.seconds, Trace: s.trace, Smoke: s.smoke}
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	trace := "0"
	if s.trace {
		trace = "1"
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(s.seconds), "--trace", trace}
	if s.smoke {
		args = append(args, "--smoke")
	}
	if s.dir != "" {
		args = append(args, "--dir", s.dir)
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	last := ""
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &rec.resultLine); err != nil {
		if runErr != nil {
			return rec, fmt.Errorf("%s: %w", workload, runErr)
		}
		return rec, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if runErr != nil {
		return rec, fmt.Errorf("%s: %w", workload, runErr)
	}
	return rec, nil
}

func writeResultFile(path string, rf resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cmdAll runs every workload once, each in its own process.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	var s suiteFlags
	s.register(fs, "result.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rf := resultFile{Env: currentEnvironment(s.dir)}
	var failed []string
	for _, w := range workloadOrder {
		rec, err := runChild(s, w, s.seed, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			failed = append(failed, w)
		}
		rf.Runs = append(rf.Runs, rec)
	}
	if err := writeResultFile(s.out, rf); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", s.out)
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// cmdRepeat runs the suite n times, each time with the next seed and in
// the opposite workload order (so no workload always runs on a box the
// same neighbour just warmed or tired), then prints median and quartiles
// per workload and metric.
func cmdRepeat(args []string) error {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	var s suiteFlags
	s.register(fs, "repeat.json")
	n := fs.Int("n", 10, "how many times to run every workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rf := resultFile{Env: currentEnvironment(s.dir)}
	var failed []string
	for i := 0; i < *n; i++ {
		order := append([]string(nil), workloadOrder...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			fmt.Printf("# repeat %d/%d: %s seed %d\n", i+1, *n, w, s.seed+int64(i))
			rec, err := runChild(s, w, s.seed+int64(i), io.Discard)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				failed = append(failed, fmt.Sprintf("%s@%d", w, s.seed+int64(i)))
			}
			rf.Runs = append(rf.Runs, rec)
		}
	}
	if err := writeResultFile(s.out, rf); err != nil {
		return err
	}
	printSpread(os.Stdout, rf)
	fmt.Printf("# wrote %s\n", s.out)
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// series collects, per workload and metric, the values of a result file's
// runs in run order.
func series(rf resultFile) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, run := range rf.Runs {
		if out[run.Workload] == nil {
			out[run.Workload] = make(map[string][]float64)
		}
		for _, d := range ledger() {
			if m, ok := run.Metrics[d.Name]; ok {
				out[run.Workload][d.Name] = append(out[run.Workload][d.Name], m.Value)
			}
		}
	}
	return out
}

// failedOps sums failed operations per workload.
func failedOps(rf resultFile) map[string]int64 {
	out := make(map[string]int64)
	for _, run := range rf.Runs {
		out[run.Workload] += run.Failed
	}
	return out
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method), which the benchmark driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 { //lint:ignore floateq guards exact division by zero
		return 0
	}
	d := (q3 - q1) / q2
	if d < 0 {
		d = -d
	}
	return d
}

// sortedMetricNames lists a workload's metric names in ledger order.
func sortedMetricNames(byMetric map[string][]float64) []string {
	var names []string
	for _, d := range ledger() {
		if _, ok := byMetric[d.Name]; ok {
			names = append(names, d.Name)
		}
	}
	return names
}

func printSpread(w io.Writer, rf resultFile) {
	all := series(rf)
	fmt.Fprintf(w, "%-15s %-36s %4s %14s %14s %14s %8s\n", "workload", "metric", "n", "median", "q1", "q3", "spread")
	for _, wl := range workloadOrder {
		for _, name := range sortedMetricNames(all[wl]) {
			xs := all[wl][name]
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-15s %-36s %4d %14.6g %14.6g %14.6g %7.2f%%\n", wl, name, len(xs), q2, q1, q3, 100*spread(xs))
		}
	}
}

// benchmarkFile is BENCHMARK.json as far as compare needs it.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of compare.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge decides one workload × metric row. A metric counts as worse when
// the new median is worse than the old by more than the bound. Where the
// run-to-run spread of either side is wider than the bound the row is
// unresolved, not unchanged — unless every new run reads better than
// every old run. It counts as better when the medians differ, in the good
// direction, by more than the old side's own spread.
func judge(old, new []float64, better string, bound float64) string {
	if len(old) == 0 || len(new) == 0 {
		return verdictUnresolved
	}
	sign := 1.0 // worsening is an increase
	if better == "higher" {
		sign = -1
	}
	mo, mn := median(old), median(new)
	if mo == 0 { //lint:ignore floateq guards exact division by zero
		return verdictUnresolved
	}
	worsening := sign * (mn - mo) / mo
	if mo < 0 {
		worsening = -worsening
	}
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return verdictBetter
	case spread(old) > bound || spread(new) > bound:
		return verdictUnresolved
	case worsening > bound:
		return verdictWorse
	case -worsening > spread(old) && len(old) > 1:
		return verdictBetter
	}
	return verdictWithin
}

// cmdCompare applies BENCHMARK.json's bounds to two result files (from
// `repeat`, or `all`) and prints one row per workload and end-to-end
// metric, plus a failed-operations row per workload, whose bound is any
// increase.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "file with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare needs two result files, got %d", fs.NArg())
	}
	var bf benchmarkFile
	if err := readJSON(*benchPath, &bf); err != nil {
		return err
	}
	var oldRF, newRF resultFile
	if err := readJSON(fs.Arg(0), &oldRF); err != nil {
		return err
	}
	if err := readJSON(fs.Arg(1), &newRF); err != nil {
		return err
	}
	if oldRF.Env.NProc != newRF.Env.NProc || oldRF.Env.Filesystem != newRF.Env.Filesystem {
		fmt.Printf("# warning: environments differ (nproc %d vs %d, filesystem %s vs %s)\n",
			oldRF.Env.NProc, newRF.Env.NProc, oldRF.Env.Filesystem, newRF.Env.Filesystem)
	}
	worse := compareFiles(os.Stdout, bf, oldRF, newRF)
	if worse > 0 {
		return fmt.Errorf("%d rows worse", worse)
	}
	return nil
}

func compareFiles(w io.Writer, bf benchmarkFile, oldRF, newRF resultFile) (worse int) {
	oldS, newS := series(oldRF), series(newRF)
	oldF, newF := failedOps(oldRF), failedOps(newRF)
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "change", "bound", "spread-o", "spread-n", "verdict")
	var names []string
	for wl := range oldS {
		if _, ok := newS[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			o, n := oldS[wl][m.Name], newS[wl][m.Name]
			v := judge(o, n, m.Better, m.Bound)
			if v == verdictWorse {
				worse++
			}
			mo, mn := median(o), median(n)
			change := 0.0
			if mo != 0 { //lint:ignore floateq guards exact division by zero
				change = 100 * (mn - mo) / mo
			}
			fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %+8.2f%% %6.0f%% %7.2f%% %7.2f%%  %s\n",
				wl, m.Name, mo, mn, change, 100*m.Bound, 100*spread(o), 100*spread(n), v)
		}
		v := verdictWithin
		if newF[wl] > oldF[wl] {
			v = verdictWorse
			worse++
		}
		fmt.Fprintf(w, "%-15s %-16s %14d %14d %9s %7s %8s %8s  %s\n", wl, "failed_ops", oldF[wl], newF[wl], "", "any", "", "", v)
	}
	return worse
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
