package service

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
)

// TestClaimOrderMatchesPrioritySeqSort is the claim-order oracle: with one
// worker no pair is ever held at claim time, so a seeded backlog over three
// priorities and five pairs must start in exactly the order a sort by
// (priority desc, seq asc) gives.
func TestClaimOrderMatchesPrioritySeqSort(t *testing.T) {
	b := newStubBackend()
	s, err := NewScheduler(Options{
		Workers:  1,
		Clock:    clock.NewManual(time.Unix(1700000000, 0)),
		Backends: map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	rng := rand.New(rand.NewSource(18))
	specs := make([]Spec, 200)
	for i := range specs {
		specs[i] = stubSpec(int64(i)) // the seed names the job in b.order
		specs[i].Priority = rng.Intn(3)
		specs[i].ServerPair = fmt.Sprintf("P%d", rng.Intn(5))
	}
	jobs, err := s.SubmitBatch(specs) // the whole backlog queues before any worker runs
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, len(jobs))
	for i := range want {
		want[i] = int64(i)
	}
	slices.SortFunc(want, func(x, y int64) int {
		if px, py := specs[x].Priority, specs[y].Priority; px != py {
			return py - px
		}
		return int(jobs[x].Seq) - int(jobs[y].Seq)
	})

	s.Start()
	for _, j := range jobs {
		waitState(t, s, j.ID, StateDone)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !slices.Equal(b.order, want) {
		t.Fatalf("start order differs from the (priority desc, seq asc) sort:\n got %v\nwant %v", b.order, want)
	}
}

// TestClaimOrderPassesOverPairBlockedHead: with the queue's head blocked
// on a held pair, a claim starts the first job whose pair is free, leaves
// the ones it passed over queued and counted, and they run in submission
// order once the pair frees.
func TestClaimOrderPassesOverPairBlockedHead(t *testing.T) {
	b := newStubBackend()
	b.block = make(chan struct{})
	b.started = make(chan int64, 8)
	s, _ := newTestScheduler(t, Options{Workers: 2}, b)

	holder := stubSpec(100)
	holder.ServerPair = "X"
	if _, err := s.Submit(holder); err != nil {
		t.Fatal(err)
	}
	<-b.started // one worker now holds pair X until the gate opens
	before := s.Metrics().ClaimPairSkips

	// Seeds 1–3 and 5 share the held pair; 4 is the first free one.
	specs := make([]Spec, 5)
	for i := range specs {
		specs[i] = stubSpec(int64(i + 1))
		specs[i].ServerPair = "X"
	}
	specs[3].ServerPair = "Y"
	jobs, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if seed := <-b.started; seed != 4 {
		t.Fatalf("started seed %d, want 4 (the first job on a free pair)", seed)
	}
	// Both workers are now inside the gated backend: no further claim runs.
	if got := s.Metrics().ClaimPairSkips - before; got != 3 {
		t.Errorf("claim_pair_skips rose by %d, want 3 (the jobs ahead of seed 4)", got)
	}
	for _, i := range []int{0, 1, 2, 4} {
		if j, _ := s.Get(jobs[i].ID); j.State != StateQueued {
			t.Errorf("pair-blocked job seed %d is %s, want queued", i+1, j.State)
		}
	}

	close(b.block)
	for _, j := range jobs {
		waitState(t, s, j.ID, StateDone)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if want := []int64{100, 4, 1, 2, 3, 5}; !slices.Equal(b.order, want) {
		t.Errorf("start order = %v, want %v", b.order, want)
	}
}

// TestCancelStormExactlyOneTerminal races a Cancel against every job's
// claim. A queued job's Cancel must answer canceled — never queued — and
// such a job never runs; a job that did start ends done or canceled; and
// either way the journal holds exactly one terminal record for it.
func TestCancelStormExactlyOneTerminal(t *testing.T) {
	const submitters, batches, perBatch = 4, 5, 15
	path := filepath.Join(t.TempDir(), "journal.wj")
	b := newStubBackend()
	s, err := NewScheduler(Options{
		Workers:     4,
		QueueLimit:  submitters * batches * perBatch,
		JournalPath: path,
		Clock:       clock.NewManual(time.Unix(1700000000, 0)),
		Backends:    map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()

	var mu sync.Mutex
	answered := map[string]State{} // job ID -> the state its one Cancel returned
	seedOf := map[string]int64{}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < batches; k++ {
				specs := make([]Spec, perBatch)
				for i := range specs {
					specs[i] = stubSpec(int64((g*batches+k)*perBatch + i))
					specs[i].ServerPair = fmt.Sprintf("P%d", i%3)
				}
				jobs, err := s.SubmitBatch(specs)
				if err != nil {
					t.Errorf("SubmitBatch: %v", err)
					return
				}
				for _, j := range jobs {
					got, err := s.Cancel(j.ID)
					if err != nil {
						t.Errorf("Cancel(%s): %v", j.ID, err)
					}
					mu.Lock()
					answered[j.ID], seedOf[j.ID] = got.State, j.Spec.Seed
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	for id, st := range answered {
		final := waitJob(t, s, id, func(j Job) bool { return j.State.Terminal() })
		runs := b.runCount(seedOf[id])
		switch {
		case st == StateQueued:
			t.Errorf("Cancel(%s) answered queued", id)
		case st == StateCanceled && runs != 0:
			t.Errorf("job %s ran %d times after Cancel answered canceled", id, runs)
		case runs > 1 || final.State == StateFailed:
			t.Errorf("job %s ran %d times and ended %s, want at most one run and done or canceled", id, runs, final.State)
		}
	}
	if m := s.Metrics(); m.Queued != 0 || m.Running != 0 {
		t.Errorf("gauges not drained: queued=%d running=%d", m.Queued, m.Running)
	}

	s.Close()
	jr, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	terminals := map[string]int{}
	for _, r := range rec.Records {
		if r.Op != recSubmit {
			terminals[r.ID]++
		}
	}
	for id := range answered {
		if terminals[id] != 1 {
			t.Errorf("job %s has %d terminal journal records, want 1", id, terminals[id])
		}
	}
}
