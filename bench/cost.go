package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
)

// costSnap is a point reading of what the process has spent so far.
type costSnap struct {
	cpu time.Duration // user + system CPU time of the process
	mem runtime.MemStats
}

// costDelta is what a timed part spent.
type costDelta struct {
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
	gcPause    time.Duration
}

// takeCost reads the counters. ReadMemStats stops the world briefly, so it
// is called only at the edges of a timed part, never inside one.
func takeCost() costSnap {
	var s costSnap
	s.cpu = processCPU()
	runtime.ReadMemStats(&s.mem)
	return s
}

func (s costSnap) since(before costSnap) costDelta {
	return costDelta{
		cpu:        s.cpu - before.cpu,
		allocBytes: s.mem.TotalAlloc - before.mem.TotalAlloc,
		allocs:     s.mem.Mallocs - before.mem.Mallocs,
		gcPause:    time.Duration(s.mem.PauseTotalNs - before.mem.PauseTotalNs),
	}
}

// setGoCost reports the Go runtime's share of a timed part per operation.
func (r *run) setGoCost(c costDelta, ops float64) {
	if ops <= 0 {
		return
	}
	r.set("go.cpu_ms_per_op", c.cpu.Seconds()*1e3/ops)
	r.set("go.alloc_mb_per_op", float64(c.allocBytes)/1e6/ops)
	r.set("go.allocs_per_op", float64(c.allocs)/ops)
	r.set("go.gc_pause_ms", ms(c.gcPause))
}

// heapSampler tracks the peak of live heap objects while a traced run is
// timed, by reading runtime/metrics (no stop-the-world) every 20 ms.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
				h.peak = v.Uint64()
			}
			t := clock.System.NewTimer(20 * time.Millisecond)
			select {
			case <-h.stop:
				t.Stop()
				return
			case <-t.C():
			}
		}
	}()
	return h
}

// finish stops the sampler and reports the peak.
func (h *heapSampler) finish(r *run) {
	close(h.stop)
	h.wg.Wait()
	r.set("go.peak_heap_mb", float64(h.peak)/1e6)
}

// repeatSetup sets a workload up `times` times (once in smoke mode), keeps the last state
// and discards the others, and reports the fastest set-up as setup_s: one
// set-up is a single sample of something that includes cold files, a cold
// runtime and whatever else the box was doing, too noisy to compare
// between commits. (The fastest rather than the median for the reason
// given at `chunked`: the box's noise only ever adds time.)
func repeatSetup[T any](r *run, times int, setup func(i int) (T, error), discard func(T)) (T, error) {
	var state T
	var took []float64
	if r.opt.smoke {
		times = 1
	}
	for i := 0; i < times; i++ {
		if i > 0 {
			discard(state)
		}
		t0 := clock.Now()
		s, err := setup(i)
		if err != nil {
			return state, err
		}
		took = append(took, clock.Since(t0).Seconds())
		state = s
	}
	r.set("setup_s", sortedCopy(took)[0])
	return state, nil
}
