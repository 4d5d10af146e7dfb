package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the experiment execution engine: a deterministic seed
// derivation (specSeed) plus a worker pool (ForEach) that fans simulation
// runs out over GOMAXPROCS goroutines while keeping results in submission
// order. Every generator that sweeps trials over a parameter grid goes
// through here, so serial (-workers=1) and parallel (-workers=N) execution
// render byte-identical reports.

// specSeed derives the seed of one simulation run from its identity — the
// experiment it belongs to, the grid cell it occupies, and its trial index
// — rather than from a shared counter. This makes a run's randomness a
// function of *what* it is, not *when* it ran: trimming the grid,
// reordering loops, or executing cells concurrently leaves every surviving
// run's seed unchanged.
//
// The derivation chains an FNV-1a hash of the strings through splitmix64
// finalizers, which gives well-mixed 64-bit outputs with no measurable
// collision risk at grid scale (thousands of cells).
func specSeed(base int64, experimentID, cellKey string, trial int) int64 {
	h := splitmix64(uint64(base))
	h = splitmix64(h ^ hash64(experimentID))
	h = splitmix64(h ^ hash64(cellKey))
	h = splitmix64(h ^ uint64(int64(trial)))
	return int64(h)
}

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// output passes BigCrush even on sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash64 is FNV-1a over s.
func hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// workers resolves the worker-pool width: an explicit Config.Workers wins,
// otherwise every available core.
func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach evaluates fn(i) for every i in [0, n) on up to workers
// goroutines and returns the results indexed by i — submission order,
// regardless of completion order. fn must be safe to call concurrently:
// in particular each call must build its own netsim.Engine and *rand.Rand
// (RunSim already does) and must not write shared state.
func ForEach[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
