package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/service"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90},
		{199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {100000, 0.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// p95 of 200 samples 1..200 leaves exactly ten beyond it.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.TailPerc != 0.95 || s.Tail != 190 || s.P95 != 190 || s.P50 != 100 {
		t.Errorf("summarize(1..200) = %+v", s)
	}
	// Too few samples for p95: the named p95 reads 0, the tail falls back.
	if s := summarize(xs[:100]); s.P95 != 0 || s.TailPerc != 0.90 || s.Tail != 90 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
}

func TestChunkedReadingsIgnoreADisturbedMajority(t *testing.T) {
	if got := chunkSize(216, 24); got != 24 {
		t.Errorf("chunkSize(216, 24) = %d, want one round", got)
	}
	if got := chunkSize(27000, 24); got != 3000 || got%24 != 0 {
		t.Errorf("chunkSize(27000, 24) = %d, want 3000 (whole rounds)", got)
	}
	if got := chunkSize(5, 1); got != 1 {
		t.Errorf("chunkSize(5, 1) = %d, want 1", got)
	}

	// Nine chunks of four 10 ms operations from two clients: 200 ops/s.
	quiet := make([]float64, 36)
	for i := range quiet {
		quiet[i] = 10
	}
	c := readChunks(2, quiet, 4)
	if len(c.rates) != 9 || math.Abs(c.bestRate()-200) > 1e-9 || math.Abs(c.bestMedian()-10) > 1e-9 {
		t.Fatalf("quiet run: %v, best rate %v, best median %v", c, c.bestRate(), c.bestMedian())
	}
	// Slow six of the nine chunks down by 40 %: the readings do not move,
	// while the whole-run mean would.
	disturbed := append([]float64(nil), quiet...)
	for i := 8; i < 32; i++ {
		disturbed[i] = 14
	}
	c = readChunks(2, disturbed, 4)
	if math.Abs(c.bestRate()-200) > 1e-9 || math.Abs(c.bestMedian()-10) > 1e-9 {
		t.Errorf("disturbed run: best rate %v, best median %v; want 200, 10", c.bestRate(), c.bestMedian())
	}
	// A trailing partial chunk is dropped; no chunk at all reads 0.
	if c := readChunks(2, quiet[:7], 4); len(c.rates) != 1 {
		t.Errorf("7 ops in chunks of 4: %d chunks, want 1", len(c.rates))
	}
	if c := readChunks(2, nil, 4); c.bestRate() != 0 || c.bestMedian() != 0 {
		t.Errorf("no ops: %v %v", c.bestRate(), c.bestMedian())
	}
}

func TestQuietRoundTakesEachCellsFastestTrial(t *testing.T) {
	a := experiments.SimSpec{App: "zoom"}
	b := experiments.SimSpec{App: "skype", BgShare: 0.75}
	trial := func(cell experiments.SimSpec, seed int64, msec float64) trialOutcome {
		cell.Seed = seed // seeds differ between rounds; the cell is the spec without it
		return trialOutcome{trialID: trialID{spec: cell}, host: time.Duration(msec * float64(time.Millisecond))}
	}
	outcomes := []trialOutcome{
		trial(a, 1, 100), trial(b, 2, 290), // round 0: b disturbed
		trial(a, 3, 140), trial(b, 4, 200), // round 1: a disturbed
		trial(a, 5, 101), trial(b, 6, 203),
		{trialID: trialID{spec: a}, host: time.Millisecond, err: os.ErrInvalid}, // a failed trial is no reading
	}
	rate, p50 := quietRound(2, outcomes)
	// Two workers, a quiet round of 100 + 200 ms: 2 × 2 ÷ 0.3 s.
	if math.Abs(rate-2*2/0.3) > 1e-9 || math.Abs(p50-150) > 1e-9 {
		t.Errorf("quietRound = %v 1/s, %v ms; want %v, 150", rate, p50, 2*2/0.3)
	}
	if rate, p50 := quietRound(2, nil); rate != 0 || p50 != 0 {
		t.Errorf("no trials: %v, %v", rate, p50)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100, Parent: -1},
		{Name: "service.a", Start: 10, End: 50, Parent: 0},
		{Name: "service.b", Start: 40, End: 70, Parent: 0},      // overlaps a by 10
		{Name: "core.c", Start: 90, End: 130, Parent: 0},        // runs past the parent: clipped to 10
		{Name: "core.d", Start: 45, End: 60, Parent: 2},         // child of b
		{Name: "fleet.open", Start: 20, End: -1, Parent: 0},     // never closed: ignored
		{Name: "bench.other", Start: 200, End: 260, Parent: -1}, // second root, no children
	}
	want := []int64{30, 40, 15, 40, 15, 0, 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	rep := reportLayers(spans)
	if math.Abs(rep.RootTotal-160e-9) > 1e-15 {
		t.Errorf("root total = %v", rep.RootTotal)
	}
	// Roots' own self time is 30+60 of 160.
	if math.Abs(rep.Share-(1-90.0/160)) > 1e-12 {
		t.Errorf("share = %v", rep.Share)
	}
	if math.Abs(rep.SelfByLayer["service"]-55e-9) > 1e-15 || math.Abs(rep.SelfByLayer["core"]-55e-9) > 1e-15 {
		t.Errorf("self by layer = %v", rep.SelfByLayer)
	}
}

func TestSpecSourceDeterministicAndCovering(t *testing.T) {
	a, b := newSpecSource(7), newSpecSource(7)
	for round := 0; round < 3; round++ {
		if !reflect.DeepEqual(a.round(), b.round()) {
			t.Fatalf("round %d differs between two sources of one seed", round)
		}
	}
	first, other := newSpecSource(7).round(), newSpecSource(8).round()
	if reflect.DeepEqual(first, other) {
		t.Fatal("seeds 7 and 8 give the same round")
	}

	// Whatever the seed, a round is the same design: strip seeds and order.
	if len(first) != roundSize {
		t.Fatalf("round has %d specs, want %d", len(first), roundSize)
	}
	count := func(specs []experiments.SimSpec) map[experiments.SimSpec]int {
		m := make(map[experiments.SimSpec]int)
		for _, s := range specs {
			s.Seed = 0
			m[s]++
		}
		return m
	}
	if !reflect.DeepEqual(count(first), count(other)) {
		t.Error("the parameter design depends on the workload seed")
	}

	// Every grid value appears in one round.
	g := experiments.DefaultGrid()
	seen := make(map[any]bool)
	for _, s := range first {
		for _, v := range []any{s.App, s.Placement, s.InputFactor, s.QueueFactor, s.BgShare, s.CongestionFactor, s.RTT1, "rtt2:" + s.RTT2.String()} {
			seen[v] = true
		}
		if s.Duration != 45*time.Second || s.BackgroundMode != experiments.BgModePacket {
			t.Errorf("spec %+v: want 45 s simulated, packet background", s)
		}
	}
	var want []any
	for _, v := range g.AllApps() {
		want = append(want, v)
	}
	want = append(want, experiments.LimiterCommon, experiments.LimiterNonCommon, 0.0)
	for _, v := range g.InputFactors {
		want = append(want, v)
	}
	for _, v := range g.QueueFactors {
		want = append(want, v)
	}
	for _, v := range g.BgShares {
		want = append(want, v)
	}
	for _, v := range g.CongestionFactors {
		want = append(want, v)
	}
	for _, v := range g.RTT1s {
		want = append(want, v)
	}
	for _, v := range g.RTT2s {
		want = append(want, "rtt2:"+v.String())
	}
	for _, v := range want {
		if !seen[v] {
			t.Errorf("grid value %v does not appear in a round", v)
		}
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(3)), 400, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(3)), 400, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed, two schedules")
	}
	if c := poissonSchedule(rand.New(rand.NewSource(4)), 400, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds, one schedule")
	}
	// About rate × length arrivals (800 ± 5 sigma), increasing, in range.
	if n := len(a); n < 660 || n > 940 {
		t.Errorf("%d arrivals at 400/s over 2 s", n)
	}
	for i, d := range a {
		if d < 0 || d >= 2*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v out of order or range", i, d)
		}
	}
}

// A session is timed from when it was due, not from when a late sender got
// to it: the sender's lateness is part of the verdict latency and is also
// reported on its own.
func TestLatencyCountsFromDueTime(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	st := &serveSetup{
		plan:     []experiments.FleetSession{{Index: 0}},
		expected: map[experiments.SimSpec]experiments.SimVerdict{{}: {Evidence: "no evidence"}},
	}
	s := &session{index: 0, due: at(0), sent: at(7), answered: at(9), id: "j1"}
	s.job.State = "done"
	s.job.SubmittedAt, s.job.StartedAt, s.job.FinishedAt = at(8), at(10), at(12)
	s.job.Result = resultFor(st.expected[experiments.SimSpec{}])

	r := &run{values: map[string]float64{}}
	var ps phaseStats
	if done := r.checkSessions(st, "r100", []*session{s}, false, &ps); done != 1 || r.failed != 0 {
		t.Fatalf("completed %d, failed %d", done, r.failed)
	}
	if ps.verdictMs[0] != 12 || ps.lateMs[0] != 7 || ps.submitMs[0] != 2 || ps.queueMs[0] != 2 || ps.runMs[0] != 2 {
		t.Errorf("verdict %v late %v submit %v queue %v run %v; want 12 7 2 2 2",
			ps.verdictMs[0], ps.lateMs[0], ps.submitMs[0], ps.queueMs[0], ps.runMs[0])
	}

	// An unfinished job and a wrong result both count as failed.
	late := &session{index: 0, due: at(0), sent: at(0), answered: at(1), id: "j2"}
	late.job.State = "running"
	wrong := &session{index: 0, due: at(0), sent: at(0), answered: at(1), id: "j3", job: s.job}
	wrong.job.Result = resultFor(experiments.SimVerdict{LocalizedToISP: true, Evidence: "shared bottleneck"})
	if done := r.checkSessions(st, "r400", []*session{late, wrong}, false, &ps); done != 0 || r.failed != 2 || r.attempted != 3 {
		t.Errorf("completed %d, failed %d of %d attempted; want 0, 2 of 3", done, r.failed, r.attempted)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 85, 115, 100, 60, 140, 95, 105, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"same", steady, steady, "lower", 0.10, verdictWithin},
		{"5% slower, lower is better", steady, shift(steady, 1.05), "lower", 0.10, verdictWithin},
		{"15% slower, lower is better", steady, shift(steady, 1.15), "lower", 0.10, verdictWorse},
		{"15% higher, higher is better", steady, shift(steady, 1.15), "higher", 0.10, verdictBetter},
		{"15% lower, higher is better", steady, shift(steady, 0.85), "higher", 0.10, verdictWorse},
		{"5% faster, beyond own spread", steady, shift(steady, 0.95), "lower", 0.10, verdictBetter},
		{"spread wider than bound", noisy, shift(noisy, 1.3), "lower", 0.10, verdictUnresolved},
		{"wide spread but every run better", noisy, shift(steady, 0.5), "lower", 0.10, verdictBetter},
		{"nothing to compare", nil, steady, "lower", 0.10, verdictUnresolved},
	} {
		if got := judge(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesRowsAndFailures(t *testing.T) {
	mk := func(f float64, failed int64) resultFile {
		var rf resultFile
		for i := 0; i < 10; i++ {
			rf.Runs = append(rf.Runs, runRecord{Workload: "paper_cold", resultLine: resultLine{
				Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{"ops_per_s": {Value: f * (100 + float64(i%3)), Unit: "1/s"}},
			}})
		}
		return rf
	}
	var bf benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"ops_per_s","better":"higher","bound":0.1}]}`), &bf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if worse := compareFiles(&out, bf, mk(1, 0), mk(0.8, 1)); worse != 2 {
		t.Errorf("worse = %d, want 2 (the metric and the failures)\n%s", worse, out.String())
	}
	if !strings.Contains(out.String(), "failed_ops") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("missing rows:\n%s", out.String())
	}
	out.Reset()
	if worse := compareFiles(&out, bf, mk(1, 0), mk(1.01, 0)); worse != 0 {
		t.Errorf("worse = %d, want 0\n%s", worse, out.String())
	}
}

// BENCHMARK.json must list exactly the ledger's metrics, and stay inside
// the driver contract's limits.
func TestBenchmarkFileMatchesLedger(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bm.Workloads), len(workloadOrder))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloadOrder[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadOrder[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the ledger %d+%d", len(bm.EndToEnd), len(bm.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	hasSetup := false
	for i, m := range bm.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, ledger %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for i, m := range bm.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, ledger %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
		if len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("%s (%s): name or unit too long", m.Name, m.Unit)
		}
	}
	if len(bm.PerLayer) > 128 || bm.RunSeconds < 1 || bm.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("outside the contract's limits: %d per-layer metrics, run_seconds %d, %d bytes", len(bm.PerLayer), bm.RunSeconds, len(raw))
	}
}

func TestResultLineShape(t *testing.T) {
	values := map[string]float64{"ops_per_s": 12.5, "setup_s": 0.9, "netsim.events": 42}
	for _, traced := range []bool{false, true} {
		res := buildResult(values, 10, 0, traced)
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) || !res.Correct {
			t.Fatalf("traced=%v: %d metrics, correct=%v", traced, len(res.Metrics), res.Correct)
		}
		var back map[string]any
		if err := json.Unmarshal([]byte(marshalLine(res)), &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", back)
		}
	}
	if res := buildResult(values, 10, 1, false); res.Correct {
		t.Error("a failed operation must make the run incorrect")
	}
}

// resultFor is the job result the sim backend reports for a verdict.
func resultFor(v experiments.SimVerdict) *service.Result {
	return &service.Result{
		Backend:        service.BackendSim,
		LocalizedToISP: v.LocalizedToISP,
		Evidence:       v.Evidence,
		LossRates:      v.LossRate,
	}
}
