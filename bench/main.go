// Command bench is WeHeY's performance ledger: four workloads that follow
// a localization session's journey through the five layers (simulator,
// detectors, sim cache, campaign service, fleet inference), the
// end-to-end numbers their users wait for, and — in a separate traced
// run — the per-layer numbers that say where the time went. See
// bench/README.md.
//
// Usage:
//
//	go run ./bench --workload paper_cold --seed 1 --seconds 10 --trace 0
//	go run ./bench all -seed 1 [-trace] [-smoke]
//	go run ./bench repeat -n 10 [-out bench/out/repeat.json]
//	go run ./bench compare old.json new.json
//
// The first form is what the benchmark driver runs (BENCHMARK.json): one
// workload, one process, and as the last line of standard output one JSON
// object with the keys correct, attempted, failed and metrics. The others
// run that form in child processes and collect the lines.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"github.com/nal-epfl/wehey/internal/clock"
)

// workloads maps each workload name to its implementation.
var workloads = map[string]func(*run) error{
	"paper_cold":     runPaperCold,
	"paper_rerun":    runPaperRerun,
	"serve_arrivals": runServeArrivals,
	"campaign_bulk":  runCampaignBulk,
}

// workloadOrder is the order `all` runs them in.
var workloadOrder = []string{"paper_cold", "paper_rerun", "serve_arrivals", "campaign_bulk"}

// outDir holds everything the benchmark writes: result and trace files,
// and (by default) the journals and sim caches of the runs. It is relative
// to the working directory, which is the repository root.
const outDir = "bench/out"

// options are one workload run's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	dir      string
}

// run is the state one workload run accumulates.
type run struct {
	opt   options
	nproc int
	tr    *tracer // nil: tracing off
	dir   string  // this run's scratch directory (journal, sim cache)

	values    map[string]float64
	attempted int64
	failed    int64
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// fail counts n failed operations (a miss of a correctness check counts
// like a failed request) and says why on standard error.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", r.opt.workload, fmt.Sprintf(format, args...))
}

// scale shrinks a full-size count for the smoke mode (1/20, at least min).
func (r *run) scale(n, min int) int {
	if !r.opt.smoke {
		return n
	}
	if n /= 20; n < min {
		n = min
	}
	return n
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
	}
	var err error
	switch args[0] {
	case "all":
		err = cmdAll(args[1:])
	case "repeat":
		err = cmdRepeat(args[1:])
	case "compare":
		err = cmdCompare(args[1:])
	case "help", "-h", "-help", "--help":
		usage()
	default:
		err = cmdWorkload(args)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--dir <path>]
  bench all [-seed n] [-seconds s] [-trace] [-smoke] [-dir path]
  bench repeat [-n 10] [-seed n] [-seconds s] [-trace] [-out file]
  bench compare old.json new.json
workloads: %v
`, workloadOrder)
	os.Exit(2)
}

// workloadFlags registers the flags shared by the single-workload form.
func workloadFlags(fs *flag.FlagSet, o *options, trace *int) {
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed part measures")
	fs.IntVar(trace, "trace", 0, "1: traced run (per-layer metrics); 0: end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "1/20 size, checks on, no timing claims")
	fs.StringVar(&o.dir, "dir", "", "directory for journals and sim caches (default "+outDir+"/work)")
}

// cmdWorkload runs one workload in this process and prints its result
// line last.
func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	workloadFlags(fs, &o, &trace)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.trace = trace != 0
	fn := workloads[o.workload]
	if fn == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.smoke {
		o.seconds /= 20
	}
	if o.dir == "" {
		o.dir = filepath.Join(outDir, "work")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.dir, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{opt: o, nproc: runtime.NumCPU(), dir: dir, values: make(map[string]float64)}
	if o.trace {
		r.tr = newTracer()
	}
	fmt.Printf("# bench %s seed=%d seconds=%g trace=%v smoke=%v nproc=%d gomaxprocs=%d %s fs(%s)=%s\n",
		o.workload, o.seed, o.seconds, o.trace, o.smoke, r.nproc, runtime.GOMAXPROCS(0), runtime.Version(), o.dir, fsType(o.dir))
	fmt.Println("# the service listens on 127.0.0.1 (loopback, not a real link); journal and sim cache are real files, fsync is real")

	start := clock.Now()
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if r.tr != nil {
		r.reportTrace()
	}
	if r.attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", o.workload)
	}
	res := buildResult(r.values, r.attempted, r.failed, o.trace)
	printHuman(os.Stdout, o.workload, r.values, res, o.trace)
	fmt.Printf("# %s wall %.1fs\n", o.workload, clock.Since(start).Seconds())
	fmt.Println(marshalLine(res))
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed or missed a check", o.workload, r.failed, r.attempted)
	}
	return nil
}

// reportTrace folds the recorded spans into the self-time metrics and
// writes the trace file.
func (r *run) reportTrace() {
	spans := r.tr.snapshot()
	rep := reportLayers(spans)
	for layer, sec := range rep.SelfByLayer {
		r.set("self_s."+layer, sec)
	}
	r.set("bench.trace_self_share", rep.Share)
	r.set("bench.trace_spans", float64(len(spans)))
	path := filepath.Join(outDir, "trace-"+r.opt.workload+".jsonl")
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		err = writeTrace(path, spans)
		if err == nil {
			fmt.Printf("# %d spans in %s; root time %.3fs, layers' self time covers %.1f%% of it\n",
				len(spans), path, rep.RootTotal, 100*rep.Share)
			return
		}
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}
