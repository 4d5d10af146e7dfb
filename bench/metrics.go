package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// metricDef is one row of the ledger. The table below is the single
// source of the metric names: BENCHMARK.json lists the same names (a test
// pins the two together), and every workload reports every name — a
// per-layer metric a workload never exercises reads 0, which is itself a
// prediction ("experiments.sim_busy_s is 0 on paper_rerun").
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the system waits for. The driver
// contract wants every workload to report every end-to-end metric and
// none of them ever 0, so the names are workload-neutral: each workload's
// "operation" is documented in bench/README.md (a trial, a session, a
// planted job / a restart-to-map cycle).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
}

// perLayer are the single-layer numbers of the traced run, plus the
// workload-specific end-to-end readings that cannot be gated uniformly
// (tails that need more samples than a short run has, the second arrival
// rate, the three campaign read paths). Layer names are the module names.
var perLayer = []metricDef{
	// Workload-specific end-to-end readings (ungated detail).
	{"ops_per_s_wall", "1/s", "higher", 0},
	{"op_ms_p50_run", "ms", "lower", 0},
	{"op_ms_tail", "ms", "lower", 0},
	{"op_tail_percentile", "count", "higher", 0},
	{"op_samples", "count", "higher", 0},
	{"verdict_ms_p50.r100", "ms", "lower", 0},
	{"verdict_ms_p95.r100", "ms", "lower", 0},
	{"verdict_ms_p50.r400", "ms", "lower", 0},
	{"verdict_ms_p95.r400", "ms", "lower", 0},
	{"sessions_per_s", "1/s", "higher", 0},
	{"plant_jobs_per_s", "1/s", "higher", 0},
	{"recover_s", "s", "lower", 0},
	{"map_infer_s", "s", "lower", 0},
	{"follow_catchup_s", "s", "lower", 0},

	{"netsim.events", "count", "lower", 0},
	{"netsim.bg_events", "count", "lower", 0},
	{"netsim.events_per_s", "1/s", "higher", 0},
	{"netsim.ns_per_event", "ns", "lower", 0},
	{"experiments.sim_busy_s", "s", "lower", 0},
	{"experiments.sim_ms_p50", "ms", "lower", 0},
	{"experiments.verdicts_localized", "count", "higher", 0},

	{"core.detect_busy_s", "s", "lower", 0},
	{"core.detect_us_p50", "us", "lower", 0},
	{"core.detect_us_p95", "us", "lower", 0},

	{"simcache.hits", "count", "higher", 0},
	{"simcache.disk_hits", "count", "higher", 0},
	{"simcache.misses", "count", "lower", 0},
	{"simcache.corrupt", "count", "lower", 0},
	{"simcache.disk_hit_us_p50", "us", "lower", 0},
	{"simcache.disk_hit_us_p95", "us", "lower", 0},
	{"simcache.disk_bytes_per_entry", "bytes", "lower", 0},

	{"measure.encode_mb_per_s", "MB/s", "higher", 0},
	{"measure.decode_mb_per_s", "MB/s", "higher", 0},

	{"service.submit_http_ms_p50", "ms", "lower", 0},
	{"service.submit_http_ms_p95", "ms", "lower", 0},
	{"service.queue_wait_ms_p50", "ms", "lower", 0},
	{"service.queue_wait_ms_p95", "ms", "lower", 0},
	{"service.run_ms_p50", "ms", "lower", 0},
	{"service.run_ms_p95", "ms", "lower", 0},
	{"service.journal_commits", "count", "lower", 0},
	{"service.journal_records_per_commit", "count", "higher", 0},
	{"service.journal_bytes_per_job", "bytes", "lower", 0},
	{"service.claim_scans_per_job", "count", "lower", 0},
	{"service.claim_pair_skips", "count", "lower", 0},
	{"service.rejected", "count", "lower", 0},
	{"service.retried", "count", "lower", 0},
	{"service.submit_batch_ms_p50", "ms", "lower", 0},
	{"service.status_batch_ms_p50", "ms", "lower", 0},
	{"service.list_page_ms_p50", "ms", "lower", 0},
	{"service.load_journal_jobs_per_s", "1/s", "higher", 0},
	{"service.recover_jobs_per_s", "1/s", "higher", 0},

	{"fleet.from_jobs_per_s", "1/s", "higher", 0},
	{"fleet.merge_ms", "ms", "lower", 0},
	{"fleet.snapshot_ms", "ms", "lower", 0},
	{"fleet.score_ms", "ms", "lower", 0},
	{"tomo.identify_ms", "ms", "lower", 0},
	{"fleet.follow_jobs_per_s", "1/s", "higher", 0},
	{"fleet.follow_pages", "count", "lower", 0},
	{"fleet.follow_status_batches", "count", "lower", 0},
	{"fleet.follow_lag_jobs_p95", "count", "lower", 0},
	{"fleet.follow_missed_jobs", "count", "lower", 0},

	{"bench.generator_late_ms_p95.r100", "ms", "lower", 0},
	{"bench.generator_late_ms_p95.r400", "ms", "lower", 0},
	{"bench.backlog_end.r100", "count", "lower", 0},
	{"bench.backlog_end.r400", "count", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "higher", 0},
	{"bench.trace_self_share", "ratio", "higher", 0},
	{"bench.trace_spans", "count", "lower", 0},

	// Self time per layer over the traced operations (span minus the part
	// its children cover), in seconds summed over all operations.
	{"self_s.bench", "s", "lower", 0},
	{"self_s.experiments", "s", "lower", 0},
	{"self_s.core", "s", "lower", 0},
	{"self_s.simcache", "s", "lower", 0},
	{"self_s.service", "s", "lower", 0},
	{"self_s.fleet", "s", "lower", 0},
	{"self_s.tomo", "s", "lower", 0},

	{"go.cpu_ms_per_op", "ms", "lower", 0},
	{"go.alloc_mb_per_op", "MB", "lower", 0},
	{"go.allocs_per_op", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.peak_heap_mb", "MB", "lower", 0},
}

// ledger is every metric, end-to-end first.
func ledger() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// metricValue is one reading in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a workload run prints: the driver contract's
// exact four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult keeps the metrics of the run's mode — end-to-end with
// tracing off, per-layer with tracing on — filling names the workload did
// not set with 0.
func buildResult(values map[string]float64, attempted, failed int64, traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultLine{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return res
}

// printHuman writes the `workload metric value unit` lines, in table
// order, then failed_ratio (which the JSON line carries as
// failed/attempted). An untraced run prints the end-to-end metrics and,
// after them, the per-layer readings it took anyway (the workload's own
// end-to-end detail, the exact counts); a traced run prints every
// per-layer metric.
func printHuman(w io.Writer, workload string, values map[string]float64, res resultLine, traced bool) {
	if !traced {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "%s %s %s %s\n", workload, d.Name, formatValue(values[d.Name]), d.Unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := values[d.Name]; ok || traced {
			fmt.Fprintf(w, "%s %s %s %s\n", workload, d.Name, formatValue(v), d.Unit)
		}
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%s failed_ratio %s ratio (failed=%d attempted=%d)\n", workload, formatValue(ratio), res.Failed, res.Attempted)
}

// formatValue prints nine significant digits: exact for the counts, ample
// for the timings.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 9, 64)
}

func marshalLine(res resultLine) string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(b)
}

// quantile returns the q-quantile (0..1) of sorted xs by the nearest-rank
// rule on the upper side, so p95 of n samples has floor(0.05n) samples
// strictly beyond it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates of the tail rule, highest first.
var tailPercentiles = []float64{0.99, 0.95, 0.90, 0.75}

// tailPercentile is the percentile rule of the choosing-metrics guide: the
// highest candidate percentile that still has at least ten samples beyond
// it; 0.5 (the median) when even p75 does not.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if int(math.Floor((1-p)*float64(n)+1e-9)) >= 10 {
			return p
		}
	}
	return 0.5
}

// summary is a timing sample set reduced to what the ledger prints.
type summary struct {
	N        int
	P50      float64
	P95      float64 // 0 when fewer than ten samples lie beyond p95
	Tail     float64
	TailPerc float64
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	out := summary{N: len(s), P50: quantile(s, 0.5), TailPerc: tailPercentile(len(s))}
	out.Tail = quantile(s, out.TailPerc)
	if out.TailPerc >= 0.95 {
		out.P95 = quantile(s, 0.95)
	}
	return out
}

// chunksPerRun is how many consecutive chunks a run's operations are cut
// into for the gated readings.
const chunksPerRun = 9

// chunked is a run's operation times reduced chunk by chunk.
//
// The reference box's cores are shared: for seconds at a time another
// tenant slows them by 10-40 % (more for integer code, less for floating
// point, so no single correction factor exists). That noise is one-sided —
// it only ever makes the program slower — so the gated readings are taken
// from the least disturbed third of the run: the highest chunk rates and
// the lowest chunk medians. A chunk is long enough (a whole round of the
// design; hundreds of sessions; seconds of passes) to hold its share of
// garbage collections and fsyncs, so it is the system's speed, not a lucky
// moment. The whole-run figures are kept beside them (ops_per_s_wall,
// op_ms_p50_run); on a quiet box the two agree.
type chunked struct {
	rates   []float64 // per chunk: units × ops ÷ summed op time, in 1/s
	medians []float64 // per chunk: median op time, in ms
}

// chunkSize cuts n operations into chunksPerRun chunks, each a multiple of
// unit (the paper workloads' round, so every chunk is the same work).
func chunkSize(n, unit int) int {
	size := n / chunksPerRun / unit * unit
	if size < unit {
		size = unit
	}
	return size
}

// readChunks cuts durations (ms, in the order given) into consecutive
// chunks of size. A chunk's rate is what `units` never-idle closed-loop
// clients complete per second at its mean op time (for batched planting,
// `units` is the jobs per op).
func readChunks(units int, durations []float64, size int) chunked {
	var c chunked
	for lo := 0; size > 0 && lo+size <= len(durations); lo += size {
		part := durations[lo : lo+size]
		sum := 0.0
		for _, d := range part {
			sum += d
		}
		if sum > 0 {
			c.rates = append(c.rates, float64(units*size)/(sum/1e3))
			c.medians = append(c.medians, median(part))
		}
	}
	return c
}

// bestRate is the mean of the highest third of the chunk rates;
// bestMedian the mean of the lowest third of the chunk medians. A third,
// not the single best chunk, so that the reading averages over a few
// chunks' worth of what the seed varies (a round's simulations cost a few
// percent more or less with their seeds) while up to two thirds of the run
// may be disturbed without moving it.
func (c chunked) bestRate() float64 {
	s := sortedCopy(c.rates)
	return mean(s[len(s)-quietThird(len(s)):])
}

func (c chunked) bestMedian() float64 {
	s := sortedCopy(c.medians)
	return mean(s[:quietThird(len(s))])
}

func quietThird(n int) int { return (n + 2) / 3 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func (c chunked) String() string {
	r, m := sortedCopy(c.rates), sortedCopy(c.medians)
	if len(r) == 0 {
		return "no chunks"
	}
	out := fmt.Sprintf("%d chunks: rate %.4g..%.4g (median %.4g) 1/s", len(r), r[0], r[len(r)-1], median(r))
	if len(m) > 0 {
		out += fmt.Sprintf(", op median %.4g..%.4g ms", m[0], m[len(m)-1])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
