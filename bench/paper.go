package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/simcache"
)

// trialItem is one unit of work of the paper workloads: a spec and the
// cache it is evaluated through.
type trialItem struct {
	trialID
	cfg  experiments.Config
	done func() // called after the trial, when set
}

// trialID says which trial an outcome belongs to. Outcomes carry it
// instead of the item so they do not keep the item's cache alive.
type trialID struct {
	spec  experiments.SimSpec
	round int
	index int // position within the round
}

// trialOutcome is what one trial produced.
type trialOutcome struct {
	trialID
	verdict experiments.SimVerdict
	err     error
	host    time.Duration // host time of the whole trial
	sim     time.Duration // traced only: Config.Sim
	detect  time.Duration // traced only: core.DetectCommonBottleneck
}

// runTrial evaluates one spec. With tracing off it is exactly
// Config.Verdict. With tracing on, the same two steps are called from
// here so each gets a span; simSpan names the first (a miss computes, a
// disk hit decodes).
func (r *run) runTrial(it trialItem, traced bool, simSpan string, session int) trialOutcome {
	out := trialOutcome{trialID: it.trialID}
	if !traced {
		t0 := clock.Now()
		out.verdict, out.err = it.cfg.Verdict(it.spec)
		out.host = clock.Since(t0)
		return out
	}
	root := r.tr.begin("bench.trial", -1, session)
	id := r.tr.begin(simSpan, root, session)
	res := it.cfg.Sim(it.spec)
	out.sim = r.tr.end(id)
	id = r.tr.begin("core.detect", root, session)
	rng := rand.New(rand.NewSource(experiments.DetectSeed(it.spec.Seed)))
	det, err := core.DetectCommonBottleneck(rng,
		core.DetectorInput{M1: &res.M1, M2: &res.M2}, core.DetectorConfig{})
	out.detect = r.tr.end(id)
	if err == nil {
		out.verdict = experiments.SimVerdict{
			LocalizedToISP: det.Evidence.Found(),
			Evidence:       det.Evidence.String(),
			LossRate:       res.LossRate,
		}
	}
	out.err = err
	out.host = r.tr.end(root)
	return out
}

// stretch runs trials on nproc goroutines (closed loop, nproc clients)
// for at least `length`: workers take items from next() until it reports
// the end, which it does at a round boundary after the deadline, so every
// stretch measures whole rounds of the same design.
type stretch struct {
	outcomes []trialOutcome
	elapsed  time.Duration
}

func (r *run) runStretch(length time.Duration, traced bool, simSpan string, newRound func(round int) []trialItem) stretch {
	var (
		mu       sync.Mutex
		cur      []trialItem
		pos      int
		rounds   int
		outcomes []trialOutcome
	)
	start := clock.Now()
	next := func() (trialItem, bool) {
		mu.Lock()
		defer mu.Unlock()
		if pos == len(cur) {
			if rounds > 0 && clock.Since(start) >= length {
				return trialItem{}, false
			}
			cur, pos = newRound(rounds), 0
			rounds++
		}
		it := cur[pos]
		pos++
		return it, true
	}
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []trialOutcome
			for {
				it, ok := next()
				if !ok {
					break
				}
				local = append(local, r.runTrial(it, traced, simSpan, it.round*roundSize+it.index))
				if it.done != nil {
					it.done()
				}
			}
			mu.Lock()
			outcomes = append(outcomes, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return stretch{outcomes: outcomes, elapsed: clock.Since(start)}
}

// timedStretches runs the timed part. An untraced run is one stretch of
// --seconds. A traced run spends the first quarter untraced — its
// trials/s is the base of bench.trace_overhead_ratio — and the rest
// traced; every reported number comes from the traced stretch.
func (r *run) timedStretches(simSpan string, newRound func(round int) []trialItem) (main stretch, cost costDelta) {
	total := time.Duration(r.opt.seconds * float64(time.Second))
	if r.tr == nil {
		before := takeCost()
		main = r.runStretch(total, false, simSpan, newRound)
		return main, takeCost().since(before)
	}
	base := r.runStretch(total/4, false, simSpan, newRound)
	baseRounds := (len(base.outcomes) + roundSize - 1) / roundSize
	heap := startHeapSampler()
	before := takeCost()
	main = r.runStretch(total-total/4, true, simSpan, func(round int) []trialItem { return newRound(baseRounds + round) })
	cost = takeCost().since(before)
	heap.finish(r)
	if base.elapsed > 0 && main.elapsed > 0 {
		r.set("bench.trace_overhead_ratio",
			(float64(len(main.outcomes))/main.elapsed.Seconds())/(float64(len(base.outcomes))/base.elapsed.Seconds()))
	}
	return main, cost
}

// reportTrials sets the end-to-end metrics of a stretch and, for a traced
// one, the per-trial layer metrics.
func (r *run) reportTrials(s stretch, cost costDelta, roundLen int, simIsMiss bool) {
	// Round by round, in the design's order: every chunk of roundSize is
	// then the same simulated work.
	sort.Slice(s.outcomes, func(i, j int) bool {
		a, b := s.outcomes[i], s.outcomes[j]
		if a.round != b.round {
			return a.round < b.round
		}
		return a.index < b.index
	})
	host := make([]float64, 0, len(s.outcomes))
	var sims, detects []float64
	var hostTotal, simBusy, detectBusy time.Duration
	for _, o := range s.outcomes {
		r.attempted++
		if o.err != nil {
			r.fail(1, "trial %d/%d: %v", o.round, o.index, o.err)
			continue
		}
		host = append(host, ms(o.host))
		hostTotal += o.host
		if r.tr != nil {
			simBusy += o.sim
			detectBusy += o.detect
			sims = append(sims, ms(o.sim))
			detects = append(detects, us(o.detect))
		}
	}
	n := float64(len(s.outcomes))
	sum := summarize(host)
	var how string
	if simIsMiss {
		// A cold run has only a handful of rounds, and a disturbance lasts
		// about as long as a trial: read it cell by cell.
		rate, p50 := quietRound(r.nproc, s.outcomes)
		r.set("ops_per_s", rate)
		r.set("op_ms_p50", p50)
		how = fmt.Sprintf("quietest trial per cell: %.4g 1/s, median %.4g ms", rate, p50)
	} else {
		chunks := readChunks(r.nproc, host, chunkSize(len(host), roundLen))
		r.set("ops_per_s", chunks.bestRate())
		r.set("op_ms_p50", chunks.bestMedian())
		how = chunks.String()
	}
	r.set("ops_per_s_wall", n/s.elapsed.Seconds())
	r.set("op_ms_p50_run", sum.P50)
	r.set("op_ms_tail", sum.Tail)
	r.set("op_tail_percentile", 100*sum.TailPerc)
	r.set("op_samples", float64(sum.N))
	fmt.Printf("# %d trials in %.2fs on %d goroutines: p50 %.3f ms, p%.0f %.3f ms; %s\n",
		len(s.outcomes), s.elapsed.Seconds(), r.nproc, sum.P50, 100*sum.TailPerc, sum.Tail, how)
	if r.tr == nil {
		return
	}
	r.setGoCost(cost, n)
	det := summarize(detects)
	r.set("core.detect_busy_s", detectBusy.Seconds())
	r.set("core.detect_us_p50", det.P50)
	r.set("core.detect_us_p95", det.P95)
	sim := summarize(sims)
	if simIsMiss {
		r.set("experiments.sim_busy_s", simBusy.Seconds())
		r.set("experiments.sim_ms_p50", sim.P50)
	} else {
		r.set("simcache.disk_hit_us_p50", sim.P50*1e3)
		r.set("simcache.disk_hit_us_p95", sim.P95*1e3)
	}
	fmt.Printf("# summed trial time %.3fs: sim %.1f%%, detect %.1f%%\n", hostTotal.Seconds(),
		100*simBusy.Seconds()/hostTotal.Seconds(), 100*detectBusy.Seconds()/hostTotal.Seconds())
}

// quietRound reads a cold stretch cell by cell. Every round evaluates the
// same 24 cells (with fresh simulation seeds), so a run times each cell
// once per round — about ten times. The box's noise only ever adds time
// and comes in bursts about as long as a trial, so the fastest trial of a
// cell is the one nothing disturbed; a round of those is what the
// simulator costs. The rate is what nproc never-idle workers complete per
// second at that cost, the median is over the cells. (Chunks, as
// paper_rerun uses, do not work here: a run has too few rounds for a third
// of them to be quiet.)
func quietRound(clients int, outcomes []trialOutcome) (rate, p50 float64) {
	slot := make(map[experiments.SimSpec]int) // cell -> index into times
	var times []float64                       // per cell, its fastest trial in ms
	for _, o := range outcomes {
		if o.err != nil {
			continue
		}
		cell := o.spec
		cell.Seed = 0
		i, ok := slot[cell]
		if !ok {
			i = len(times)
			slot[cell] = i
			times = append(times, ms(o.host))
		}
		if t := ms(o.host); t < times[i] {
			times[i] = t
		}
	}
	if len(times) == 0 {
		return 0, 0
	}
	return float64(clients) / (mean(times) / 1e3), median(times)
}

// setCacheStats reports the cache counters per request: a run measures
// for a time, not a count, so the totals differ between runs while the
// ratios repeat exactly (1 miss per cold trial, 1 disk hit per rerun trial,
// 1 hit per served session).
func (r *run) setCacheStats(st simcache.Stats) {
	if st.Requests() == 0 {
		return
	}
	n := float64(st.Requests())
	r.set("simcache.hits", float64(st.Hits)/n)
	r.set("simcache.disk_hits", float64(st.DiskHits)/n)
	r.set("simcache.misses", float64(st.Misses)/n)
	r.set("simcache.corrupt", float64(st.Corrupt)/n)
}

// newDiskConfig opens a disk sim cache over dir.
func (r *run) newDiskConfig(dir string) (experiments.Config, error) {
	cache, err := experiments.NewDiskSimCache(dir)
	if err != nil {
		return experiments.Config{}, err
	}
	return experiments.Config{Cache: cache, Workers: r.nproc}, nil
}

// golden is bench/golden.json: the exact counts of the first round at
// seed 1, which any commit that does not change the model must reproduce.
type golden struct {
	Seed            int64 `json:"seed"`
	Trials          int   `json:"trials"`
	Localized       int   `json:"verdicts_localized"`
	NetsimEvents    int64 `json:"netsim_events"`
	NetsimBgEvents  int64 `json:"netsim_bg_events"`
	LocalizedCommon int   `json:"verdicts_localized_common_placement"`
}

const goldenPath = "bench/golden.json"

// roundCounts are the exact counts of one evaluated round.
func roundCounts(seed int64, specs []experiments.SimSpec, verdicts []experiments.SimVerdict, results []experiments.SimResult) golden {
	g := golden{Seed: seed, Trials: len(specs)}
	for i, v := range verdicts {
		if v.LocalizedToISP {
			g.Localized++
			if specs[i].Placement == experiments.LimiterCommon {
				g.LocalizedCommon++
			}
		}
		g.NetsimEvents += results[i].Events
		g.NetsimBgEvents += results[i].BgEvents
	}
	return g
}

// checkGolden compares a full first round at the golden seed with the
// committed counts. BENCH_WRITE_GOLDEN=1 rewrites the file instead (for a
// change that says it changes the model).
func (r *run) checkGolden(got golden) {
	r.set("netsim.events", float64(got.NetsimEvents))
	r.set("netsim.bg_events", float64(got.NetsimBgEvents))
	r.set("experiments.verdicts_localized", float64(got.Localized))
	if os.Getenv("BENCH_WRITE_GOLDEN") == "1" && got.Trials == roundSize {
		b, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			r.fail(1, "write golden: %v", err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		r.fail(1, "golden: %v", err)
		return
	}
	var want golden
	if err := json.Unmarshal(raw, &want); err != nil {
		r.fail(1, "golden: %v", err)
		return
	}
	if got.Seed != want.Seed || got.Trials != want.Trials {
		return // another seed, or a smoke-sized round: nothing committed to compare with
	}
	r.attempted++
	if got != want {
		r.fail(1, "first round at seed %d: got %+v, golden %+v", got.Seed, got, want)
	}
}

// paperSetup is the state both paper workloads set up: the seeded spec
// source and a directory for the disk cache.
type paperSetup struct {
	src      *specSource
	cacheDir string
	cfg      experiments.Config

	// paper_rerun only: the round its cache holds, with the cold pass's
	// verdicts and results as the reference.
	specs    []experiments.SimSpec
	verdicts []experiments.SimVerdict
	results  []experiments.SimResult
}

// warmUp evaluates throw-away specs (their own seeds, their own cache) so
// the Go runtime, the engine pools and the page cache are warm before
// timing.
func (r *run) warmUp(n int) error {
	dir, err := os.MkdirTemp(r.dir, "warm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg, err := r.newDiskConfig(dir)
	if err != nil {
		return err
	}
	specs := newSpecSource(^r.opt.seed).take(n)
	experiments.ForEach(len(specs), r.nproc, func(i int) error {
		_, err := cfg.Verdict(specs[i])
		return err
	})
	return nil
}

// runPaperCold: the researcher regenerating the evaluation from nothing.
// Every trial is a simulation; ~99% of host time is netsim.
func runPaperCold(r *run) error {
	st, err := repeatSetup(r, 5, func(i int) (*paperSetup, error) {
		dir := filepath.Join(r.dir, fmt.Sprintf("cold-%d", i))
		cfg, err := r.newDiskConfig(dir)
		if err != nil {
			return nil, err
		}
		if err := r.warmUp(r.scale(8, 2)); err != nil {
			return nil, err
		}
		return &paperSetup{src: newSpecSource(r.opt.seed), cacheDir: dir, cfg: cfg}, nil
	}, func(st *paperSetup) { os.RemoveAll(st.cacheDir) })
	if err != nil {
		return err
	}

	size := r.scale(roundSize, 4)
	var first []experiments.SimSpec
	newRound := func(round int) []trialItem {
		specs := st.src.take(size)
		if first == nil {
			first = specs
		}
		items := make([]trialItem, len(specs))
		for i, s := range specs {
			items[i] = trialItem{trialID: trialID{spec: s, round: round, index: i}, cfg: st.cfg}
		}
		return items
	}
	main, cost := r.timedStretches("experiments.sim_miss", newRound)
	r.reportTrials(main, cost, size, true)

	// Guards: every trial was a miss; nothing was served from a cache.
	stats := st.cfg.Cache.Stats()
	r.setCacheStats(stats)
	r.attempted++
	if stats.Hits != 0 || stats.DiskHits != 0 || stats.Corrupt != 0 || stats.WriteErrors != 0 {
		r.fail(1, "cold run was not all misses: %+v", stats)
	}
	if entries, bytes := dirSize(st.cacheDir); entries > 0 {
		r.set("simcache.disk_bytes_per_entry", float64(bytes)/float64(entries))
	}

	// The first round's exact counts (memory hits now: the stats above are
	// already taken), the golden comparison, and one spec recomputed
	// without any cache to show the cache returns what the simulator does.
	verdicts := make([]experiments.SimVerdict, len(first))
	results := make([]experiments.SimResult, len(first))
	for i, s := range first {
		results[i] = st.cfg.Sim(s)
		if verdicts[i], err = st.cfg.Verdict(s); err != nil {
			return err
		}
	}
	r.checkGolden(roundCounts(r.opt.seed, first, verdicts, results))
	r.attempted++
	if direct := experiments.RunSim(first[0]); !reflect.DeepEqual(direct, results[0]) {
		r.fail(1, "cached result of spec 0 differs from a direct RunSim")
	}
	for _, o := range main.outcomes {
		if o.round == 0 || (r.tr != nil && o.err == nil) {
			// Round 0 against the recomputed verdicts; in a traced run every
			// trial's verdict was assembled here, so check each against
			// Config.Verdict (a memory hit).
			want, err := st.cfg.Verdict(o.spec)
			r.attempted++
			if err != nil || want != o.verdict {
				r.fail(1, "trial %d/%d verdict differs from Config.Verdict", o.round, o.index)
			}
		}
	}
	if r.tr != nil {
		r.measureCodec(results)
		if busy := r.values["experiments.sim_busy_s"]; main.elapsed > 0 {
			events := 0.0
			for _, o := range main.outcomes {
				events += float64(st.cfg.Sim(o.spec).Events)
			}
			r.set("netsim.events_per_s", events/busy)
			r.set("netsim.ns_per_event", busy*1e9/events)
		}
	}
	return nil
}

// runPaperRerun: the incremental rerun off the disk cache. netsim does
// nothing; the simcache disk path, the measure codec and the detectors do
// all the work.
func runPaperRerun(r *run) error {
	size := r.scale(roundSize, 4)
	st, err := repeatSetup(r, 3, func(i int) (*paperSetup, error) {
		dir := filepath.Join(r.dir, fmt.Sprintf("rerun-%d", i))
		cfg, err := r.newDiskConfig(dir)
		if err != nil {
			return nil, err
		}
		st := &paperSetup{src: newSpecSource(r.opt.seed), cacheDir: dir, cfg: cfg}
		st.specs = st.src.take(size)
		// The cold pass that populates the cache is set-up, never timed.
		type cold struct {
			v   experiments.SimVerdict
			res experiments.SimResult
			err error
		}
		out := experiments.ForEach(len(st.specs), r.nproc, func(i int) cold {
			v, err := cfg.Verdict(st.specs[i])
			return cold{v, cfg.Sim(st.specs[i]), err}
		})
		for _, c := range out {
			if c.err != nil {
				return nil, c.err
			}
			st.verdicts = append(st.verdicts, c.v)
			st.results = append(st.results, c.res)
		}
		return st, nil
	}, func(st *paperSetup) { os.RemoveAll(st.cacheDir) })
	if err != nil {
		return err
	}

	// Each pass opens a fresh cache over the same directory, so every trial
	// is a disk read + decode + detection, never a memory hit.
	// The pass's cache is dropped with its last trial (after its counters
	// are folded in): keeping every pass's decoded results alive would grow
	// the heap all run long.
	var mu sync.Mutex
	var stats simcache.Stats
	newRound := func(round int) []trialItem {
		cfg, err := r.newDiskConfig(st.cacheDir)
		if err != nil {
			panic(err) // the directory was usable a moment ago
		}
		left := len(st.specs)
		done := func() {
			mu.Lock()
			defer mu.Unlock()
			if left--; left == 0 {
				s := cfg.Cache.Stats()
				stats.Hits += s.Hits
				stats.DiskHits += s.DiskHits
				stats.Misses += s.Misses
				stats.Corrupt += s.Corrupt
			}
		}
		items := make([]trialItem, len(st.specs))
		for i, s := range st.specs {
			items[i] = trialItem{trialID: trialID{spec: s, round: round, index: i}, cfg: cfg, done: done}
		}
		return items
	}
	main, cost := r.timedStretches("simcache.disk_hit", newRound)
	r.reportTrials(main, cost, size, false)
	r.setCacheStats(stats)
	r.attempted++
	if stats.Hits != 0 || stats.Misses != 0 || stats.Corrupt != 0 {
		r.fail(1, "rerun was not all disk hits: %+v", stats)
	}
	if entries, bytes := dirSize(st.cacheDir); entries > 0 {
		r.set("simcache.disk_bytes_per_entry", float64(bytes)/float64(entries))
	}

	// Every disk-hit verdict equals the cold pass's.
	for _, o := range main.outcomes {
		if o.err == nil && o.verdict != st.verdicts[o.index] {
			r.fail(1, "pass %d spec %d: disk-hit verdict differs from the cold pass", o.round, o.index)
		}
	}
	// And the decoded results are bit-identical to what the cold pass
	// computed (one more fresh pass, untimed).
	cfg, err := r.newDiskConfig(st.cacheDir)
	if err != nil {
		return err
	}
	for i, s := range st.specs {
		r.attempted++
		if !reflect.DeepEqual(cfg.Sim(s), st.results[i]) {
			r.fail(1, "spec %d: disk-hit SimResult differs from the cold pass", i)
		}
	}
	r.checkGolden(roundCounts(r.opt.seed, st.specs, st.verdicts, st.results))
	if r.tr != nil {
		r.measureCodec(st.results)
	}
	return nil
}

// measureCodec times the measure codec alone over results' paths:
// AppendPathBinary then DecodePathBinary, enough repetitions to last a
// few tens of milliseconds.
func (r *run) measureCodec(results []experiments.SimResult) {
	var encoded [][]byte
	var bytes int64
	const reps = 20
	t0 := clock.Now()
	for rep := 0; rep < reps; rep++ {
		encoded = encoded[:0]
		for i := range results {
			b := measure.AppendPathBinary(nil, &results[i].M1)
			b = measure.AppendPathBinary(b, &results[i].M2)
			encoded = append(encoded, b)
			bytes += int64(len(b))
		}
	}
	enc := clock.Since(t0)
	t0 = clock.Now()
	for rep := 0; rep < reps; rep++ {
		for _, b := range encoded {
			_, rest, err := measure.DecodePathBinary(b)
			if err == nil {
				_, _, err = measure.DecodePathBinary(rest)
			}
			if err != nil {
				r.fail(1, "measure codec: %v", err)
				return
			}
		}
	}
	dec := clock.Since(t0)
	if enc > 0 && dec > 0 {
		r.set("measure.encode_mb_per_s", float64(bytes)/1e6/enc.Seconds())
		r.set("measure.decode_mb_per_s", float64(bytes)/1e6/dec.Seconds())
	}
}

// dirSize counts the regular files under dir and their bytes.
func dirSize(dir string) (entries int, bytes int64) {
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			entries++
			bytes += info.Size()
		}
		return nil
	})
	return entries, bytes
}
