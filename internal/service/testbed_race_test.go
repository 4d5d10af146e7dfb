package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// pairGuardBackend wraps a backend and independently verifies the
// scheduler's server-pair tokens: it fails the moment two concurrent runs
// share a pair. The check is deliberately outside the scheduler (it
// re-derives occupancy from the Run calls themselves), so the test catches
// token bookkeeping bugs rather than restating them.
type pairGuardBackend struct {
	inner Backend

	mu         sync.Mutex
	active     map[string]int
	violations []string
	maxActive  int
}

func (b *pairGuardBackend) Run(ctx context.Context, spec Spec) (*Result, error) {
	if pair := spec.ServerPair; pair != "" {
		b.mu.Lock()
		b.active[pair]++
		if b.active[pair] > 1 {
			b.violations = append(b.violations,
				fmt.Sprintf("pair %s shared by %d concurrent jobs", pair, b.active[pair]))
		}
		total := 0
		for _, n := range b.active {
			total += n
		}
		if total > b.maxActive {
			b.maxActive = total
		}
		b.mu.Unlock()
		defer func() {
			b.mu.Lock()
			b.active[pair]--
			b.mu.Unlock()
		}()
	}
	return b.inner.Run(ctx, spec)
}

// TestTestbedPairExclusivityUnderRace floods the scheduler with real
// loopback-testbed localization sessions — many concurrent UDP replays
// through in-process middleboxes — across a handful of server pairs, and
// asserts that no two jobs ever shared a pair. Run under -race this also
// exercises the middlebox, transport, and scheduler concurrency together.
func TestTestbedPairExclusivityUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds of real-socket replays")
	}
	guard := &pairGuardBackend{inner: &TestbedBackend{}, active: map[string]int{}}
	s, err := NewScheduler(Options{
		Workers:  6,
		Retry:    RetryPolicy{MaxAttempts: 1},
		Backends: map[string]Backend{BackendTestbed: guard},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()

	pairs := []string{"pairA", "pairB", "pairC"}
	const jobsPerPair = 3
	var ids []string
	for i := 0; i < jobsPerPair; i++ {
		for _, pair := range pairs {
			job, err := s.Submit(Spec{
				Backend:    BackendTestbed,
				ServerPair: pair,
				Seed:       int64(len(ids) + 1),
				Testbed:    &TestbedJob{Duration: 150 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, job.ID)
		}
	}
	for _, id := range ids {
		got := waitJob(t, s, id, func(j Job) bool { return j.State.Terminal() })
		if got.State != StateDone {
			t.Errorf("job %s = %s (%s), want done", id, got.State, got.Error)
		}
	}

	guard.mu.Lock()
	defer guard.mu.Unlock()
	for _, v := range guard.violations {
		t.Error(v)
	}
	// Sanity: the pairs really did run concurrently with each other —
	// otherwise the exclusivity assertion would be vacuous.
	if guard.maxActive < 2 {
		t.Errorf("max concurrent pairs = %d; expected cross-pair parallelism", guard.maxActive)
	}
}

// TestTestbedCancelStopsTheReplay cancels a testbed job mid-replay. Every
// replay runs under the attempt's context, so the job reaches canceled
// well inside one 5 s replay instead of waiting the session out.
func TestTestbedCancelStopsTheReplay(t *testing.T) {
	const replay = 5 * time.Second
	s, err := NewScheduler(Options{
		Workers:  1,
		Retry:    RetryPolicy{MaxAttempts: 1},
		Backends: map[string]Backend{BackendTestbed: &TestbedBackend{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()

	job, err := s.Submit(Spec{Backend: BackendTestbed, Seed: 1, Testbed: &TestbedJob{Duration: replay}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateRunning)
	time.Sleep(100 * time.Millisecond) // into the first replay
	start := time.Now()
	if _, err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateCanceled)
	if took := time.Since(start); took > replay/5 {
		t.Errorf("canceled after %v; a %v replay was waited out", took, replay)
	}
}
