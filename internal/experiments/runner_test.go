package experiments

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestSpecSeedInjectiveOverGrid(t *testing.T) {
	// Enumerate a realistic multi-experiment grid and require all-distinct
	// seeds: a collision would silently replay one run's randomness as
	// another's.
	g := DefaultGrid()
	seen := map[int64]string{}
	add := func(id, cell string, trial int) {
		s := specSeed(1, id, cell, trial)
		key := fmt.Sprintf("%s/%s/%d", id, cell, trial)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
		}
		seen[s] = key
	}
	for _, app := range g.AllApps() {
		for _, mode := range []string{"modified", "unmodified"} {
			for _, f := range g.InputFactors {
				for _, q := range g.QueueFactors {
					for trial := 0; trial < 5; trial++ {
						add("figure6", fmt.Sprintf("%s/%s/f=%g/q=%g", app, mode, f, q), trial)
					}
				}
			}
		}
	}
	for _, f := range g.InputFactors {
		for _, q := range g.QueueFactors {
			for trial := 0; trial < 5; trial++ {
				add("figure5", fmt.Sprintf("f=%g/q=%g", f, q), trial)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("empty grid")
	}
}

func TestSpecSeedStableUnderTruncation(t *testing.T) {
	// A run's seed is a function of its identity only: enumerating the full
	// grid and a truncated grid must assign identical seeds to the cells
	// they share. (With counter-based seeding, trimming the grid reshuffled
	// every downstream seed — the bug this scheme fixes.)
	factors := []float64{1.5, 1.3, 2, 2.5}
	full := map[string]int64{}
	for _, f := range factors {
		for trial := 0; trial < 3; trial++ {
			full[fmt.Sprintf("f=%g/%d", f, trial)] = specSeed(1, "exp", fmt.Sprintf("f=%g", f), trial)
		}
	}
	for _, f := range factors[:2] { // the !cfg.Full truncation
		for trial := 0; trial < 3; trial++ {
			k := fmt.Sprintf("f=%g/%d", f, trial)
			if got := specSeed(1, "exp", fmt.Sprintf("f=%g", f), trial); got != full[k] {
				t.Errorf("%s: truncated grid seed %d != full grid seed %d", k, got, full[k])
			}
		}
	}
}

func TestSpecSeedSensitivity(t *testing.T) {
	base := specSeed(1, "figure6", "tcpbulk/f=1.5", 0)
	for name, other := range map[string]int64{
		"base":       specSeed(2, "figure6", "tcpbulk/f=1.5", 0),
		"experiment": specSeed(1, "figure7", "tcpbulk/f=1.5", 0),
		"cell":       specSeed(1, "figure6", "tcpbulk/f=2.5", 0),
		"trial":      specSeed(1, "figure6", "tcpbulk/f=1.5", 1),
	} {
		if other == base {
			t.Errorf("changing %s did not change the seed", name)
		}
	}
	if specSeed(1, "figure6", "tcpbulk/f=1.5", 0) != base {
		t.Error("specSeed is not deterministic")
	}
}

func TestForEachOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var calls atomic.Int64
		out := ForEach(100, workers, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if calls.Load() != 100 {
			t.Fatalf("workers=%d: fn called %d times", workers, calls.Load())
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, results not in submission order", workers, i, v)
			}
		}
	}
	if got := ForEach(0, 4, func(int) int { return 1 }); len(got) != 0 {
		t.Errorf("n=0 returned %d results", len(got))
	}
}

func TestGridMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	// Identity-seeded specs through 1 worker and through a pool must yield
	// byte-for-byte the same results in the same order.
	var specs []SimSpec
	for trial := 0; trial < 4; trial++ {
		specs = append(specs, SimSpec{
			App: TCPBulkApp, InputFactor: 1.5, BgShare: 0.5,
			Duration: 5 * time.Second,
			Seed:     specSeed(1, "runner-test", "cell", trial),
		})
	}
	serial := Config{Workers: 1}.Grid(specs)
	parallel := Config{Workers: 4}.Grid(specs)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("Grid results differ between workers=1 and workers=4")
	}
}

// TestExperimentsDeterministicAcrossWorkers is the headline guarantee:
// every registered experiment renders byte-identical reports across
// repeated runs, across worker-pool widths and through a cache, and the
// renders together are the `-run all` stream committed under testdata. Run
// under -race it also verifies the fan-out keeps each engine and rng
// goroutine-local. The cached render must see no cache hit: no generator
// asks for one trial twice.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment three times")
	}
	const golden = "testdata/run_all_trials1_seed5_6s.golden"
	render := func(t *testing.T, name string, workers int, cache *SimCache) []byte {
		t.Helper()
		cfg := Config{Trials: 1, Seed: 5, Duration: 6 * time.Second, Workers: workers, Cache: cache}
		var buf bytes.Buffer
		if err := Run(&buf, name, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return buf.Bytes()
	}
	var all bytes.Buffer
	rendered := 0
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			one := render(t, name, 1, nil)
			cache := NewSimCache()
			again := render(t, name, 1, cache)
			pool := render(t, name, 4, nil)
			if !bytes.Equal(one, again) {
				t.Errorf("%s: the cached workers=1 run differs from the uncached one", name)
			}
			if !bytes.Equal(one, pool) {
				t.Errorf("%s: workers=1 and workers=4 renders differ", name)
			}
			if hits := cache.Stats().Hits; hits != 0 {
				t.Errorf("%s: %d cache hits: the generator asked for a trial more than once", name, hits)
			}
			all.Write(one)
			all.WriteByte('\n') // RunAll's separator
			rendered++
		})
	}
	if rendered < len(Names()) {
		return // -run selected a subset of the generators
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all.Bytes(), want) {
		t.Errorf("renders differ from %s (go run ./cmd/wehey-experiments -run all -trials 1 -seed 5 -duration 6s)", golden)
	}
}
