// Command wehey-experiments regenerates the paper's tables and figures
// (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	wehey-experiments -list
//	wehey-experiments -run table1,figure6 -trials 5
//	wehey-experiments -run all -full        # paper-scale (slow)
//	wehey-experiments -run figure6 -workers 8
//	wehey-experiments -run all -cache-dir .simcache   # incremental reruns
//
// -workers fans the simulation runs of one experiment out over a worker
// pool (default: GOMAXPROCS). Seeds derive from each run's identity, not
// execution order, so the output is byte-identical for every width.
//
// -cache memoizes simulations in-process (identical trials across
// experiments — e.g. the shared ablation pool — simulate once);
// -cache-dir additionally persists results and their verdicts, so
// rerunning after a report-layer change skips every simulation and every
// detection (after a detector change, only the detection reruns). Reports
// are byte-identical with the cache off, cold, or warm; a `cache:` counter
// line, ending in the number of verdicts decided, goes to stderr, never
// into the report stream.
//
// -cpuprofile, -memprofile, and -trace write stdlib runtime/pprof and
// runtime/trace output for paper-scale perf work:
//
//	wehey-experiments -run table1 -full -cpuprofile cpu.pprof
//	go tool pprof cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/experiments"
)

func main() {
	// Profile/trace defers must flush before the process exits, so the
	// work happens in realMain and the exit code is applied here.
	os.Exit(realMain())
}

func realMain() int {
	var (
		run      = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		trials   = flag.Int("trials", 0, "trials per cell (0 = per-experiment default)")
		seed     = flag.Int64("seed", 1, "base random seed")
		full     = flag.Bool("full", false, "paper-scale trial counts (slow)")
		duration = flag.Duration("duration", 0, "replay duration override (0 = per-experiment default)")
		workers  = flag.Int("workers", 0, "simulation worker-pool width (0 = GOMAXPROCS); output is identical for any value")
		bgMode   = flag.String("background", "", "background simulation mode for specs that don't pin one: packet (default) or fluid (DESIGN.md §14)")
		useCache = flag.Bool("cache", false, "memoize simulations in-process (single-flight dedup of identical trials)")
		cacheDir = flag.String("cache-dir", "", "persist simulation results under this directory (implies -cache)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		traceOut = flag.String("trace", "", "write a runtime/trace execution trace to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			closeOrFatal(f)
		}()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.Start(f); err != nil {
			fatal(err)
		}
		defer func() {
			trace.Stop()
			closeOrFatal(f)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle live heap so the profile shows retention
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
			closeOrFatal(f)
		}()
	}

	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		for _, name := range experiments.ExtraNames() {
			fmt.Printf("%s (opt-in; excluded from -run all)\n", name)
		}
		return 0
	}

	switch *bgMode {
	case "", experiments.BgModePacket, experiments.BgModeFluid:
	default:
		fatal(fmt.Errorf("unknown -background mode %q (packet or fluid)", *bgMode))
	}

	cfg := experiments.Config{
		Trials:         *trials,
		Seed:           *seed,
		Full:           *full,
		Duration:       *duration,
		Workers:        *workers,
		BackgroundMode: *bgMode,
	}
	if *cacheDir != "" {
		cache, err := experiments.NewDiskSimCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cfg.Cache = cache
	} else if *useCache {
		cfg.Cache = experiments.NewSimCache()
	}

	start := clock.Now()
	if *run == "all" {
		experiments.RunAll(os.Stdout, cfg)
	} else {
		for _, name := range strings.Split(*run, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if err := experiments.Run(os.Stdout, name, cfg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Println()
		}
	}
	if cfg.Cache != nil {
		// Stderr, not stdout: the report stream must stay byte-identical
		// whether the cache is off, cold, or warm.
		fmt.Fprintf(os.Stderr, "cache: %s decided=%d\n", cfg.Cache.Stats(), cfg.Cache.Decided())
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", clock.Since(start).Round(time.Millisecond))
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wehey-experiments:", err)
	os.Exit(1)
}

func closeOrFatal(f *os.File) {
	if err := f.Close(); err != nil {
		fatal(err)
	}
}
