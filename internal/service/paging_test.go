package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
)

// TestJobsPagingEdges pins the /jobs cursor edges the transparent pager
// relies on: an over-cap limit is clamped server-side, a listing whose
// total is an exact multiple of the page size terminates on an empty tail
// page, and a cursor past the end returns an empty page — not an error.
func TestJobsPagingEdges(t *testing.T) {
	b := newStubBackend()
	s, err := NewScheduler(Options{
		Workers:    1,
		QueueLimit: 4 * listLimitMax,
		Clock:      clock.NewManual(time.Unix(1700000000, 0)),
		Backends:   map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Not started: the backlog stays queued; this test is about listing.
	const total = 2 * listLimitMax // exact multiple of the page size
	specs := make([]Spec, listLimitMax)
	for page := 0; page < total/len(specs); page++ {
		for i := range specs {
			specs[i] = stubSpec(int64(page*len(specs) + i))
		}
		if _, err := s.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	// A limit far above the cap is clamped to it, not honored or rejected.
	page, err := c.JobsPage(ctx, "", 10*listLimitMax)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != listLimitMax {
		t.Fatalf("over-cap request returned %d jobs, want the %d cap", len(page), listLimitMax)
	}

	// A cursor at the very last job yields an empty page (the pager's
	// termination probe when total ≡ 0 mod pageSize)...
	lastID := fmt.Sprintf("j%06d", total)
	tail, err := c.JobsPage(ctx, lastID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 0 {
		t.Fatalf("cursor at last job returned %d jobs, want 0", len(tail))
	}
	// ...and so does a cursor past any job that ever existed.
	past, err := c.JobsPage(ctx, fmt.Sprintf("%d", 50*total), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(past) != 0 {
		t.Fatalf("cursor past end returned %d jobs, want 0", len(past))
	}

	// The transparent pager survives the exact-multiple edge: two full
	// pages, then the empty tail terminates it at the right count.
	all, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != total {
		t.Fatalf("listed %d jobs, want %d", len(all), total)
	}
	for i, j := range all {
		if j.Seq != uint64(i+1) {
			t.Fatalf("job %d out of order: seq %d", i, j.Seq)
		}
	}
}

// TestMetricsExposeShardAndJournalCounters asserts the client-visible
// Metrics snapshot — what `wehey-submit metrics` prints — carries the
// claim and journal group-commit counters, not just the raw /metrics
// endpoint.
func TestMetricsExposeShardAndJournalCounters(t *testing.T) {
	b := newStubBackend()
	s, err := NewScheduler(Options{
		Workers:     2,
		JournalPath: filepath.Join(t.TempDir(), "journal.wj"),
		Clock:       clock.NewManual(time.Unix(1700000000, 0)),
		Backends:    map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()

	// Two jobs on one server pair: the second must be passed over while
	// the first holds the pair token, ticking the skip counter.
	b.block = make(chan struct{})
	specs := []Spec{stubSpec(1), stubSpec(2)}
	for i := range specs {
		specs[i].ServerPair = "sp1-sp2"
	}
	jobs, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, jobs[0].ID, StateRunning)
	close(b.block)
	for _, j := range jobs {
		waitState(t, s, j.ID, StateDone)
	}

	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	m, err := (&Client{BaseURL: srv.URL}).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.ClaimScans == 0 {
		t.Error("ClaimScans = 0 after jobs ran")
	}
	if m.JournalAppends == 0 || m.JournalBatchCommits == 0 {
		t.Errorf("journal counters %d/%d, want both nonzero",
			m.JournalAppends, m.JournalBatchCommits)
	}
	if m.Done != 2 {
		t.Errorf("Done = %d, want 2", m.Done)
	}
}

// TestListPageNeverSkipsConcurrentSubmits: sequence numbers are taken
// before the journal commit and jobs become visible after it, so with
// concurrent single submitters a higher number can be visible before a
// lower one. A follower that pages with a cursor must still see every job
// exactly once — a page may not run past a number that is not visible yet.
func TestListPageNeverSkipsConcurrentSubmits(t *testing.T) {
	const submitters, each = 8, 40
	s, err := NewScheduler(Options{
		Workers:     2,
		QueueLimit:  submitters * each,
		JournalPath: filepath.Join(t.TempDir(), "journal.wj"),
		Clock:       clock.NewManual(time.Unix(1700000000, 0)),
		Backends:    map[string]Backend{"stub": newStubBackend()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()

	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Submit(stubSpec(int64(w*each + i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	submitted := make(chan struct{})
	go func() { wg.Wait(); close(submitted) }()

	seen := make(map[uint64]int)
	var cursor uint64
	for pages, done := 0, false; ; pages++ {
		select {
		case <-submitted:
			done = true // every job is visible: one more sweep sees the rest
		default:
		}
		page := s.ListPage(cursor, 1+pages%3)
		for _, j := range page {
			if j.Seq <= cursor {
				t.Fatalf("page after seq %d holds seq %d", cursor, j.Seq)
			}
			seen[j.Seq]++
			cursor = j.Seq
		}
		if done && len(page) == 0 {
			break
		}
	}
	if t.Failed() {
		return
	}
	for seq := uint64(1); seq <= submitters*each; seq++ {
		if seen[seq] != 1 {
			t.Errorf("job seq %d seen %d times, want once", seq, seen[seq])
		}
	}
	if len(seen) != submitters*each {
		t.Errorf("follower saw %d jobs, %d were submitted", len(seen), submitters*each)
	}
}

// BenchmarkListPage times one full page of a 20 000-job listing — what a
// follower pays per GET /jobs — from the start, the middle and the end:
// the page is a walk along the sequence index, so where it starts must
// not matter.
func BenchmarkListPage(b *testing.B) {
	const jobs = 20000
	s, err := NewScheduler(Options{
		QueueLimit: jobs,
		Clock:      clock.NewManual(time.Unix(1700000000, 0)),
		Backends:   map[string]Backend{"stub": newStubBackend()},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close) // never started: the jobs stay queued
	specs := make([]Spec, jobs)
	for i := range specs {
		specs[i] = stubSpec(int64(i))
	}
	if _, err := s.SubmitBatch(specs); err != nil {
		b.Fatal(err)
	}
	for _, after := range []uint64{0, jobs / 2, jobs - listLimitMax} {
		b.Run(fmt.Sprintf("jobs=%d/after=%d", jobs, after), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if page := s.ListPage(after, listLimitMax); len(page) != listLimitMax {
					b.Fatalf("page of %d jobs, want %d", len(page), listLimitMax)
				}
			}
		})
	}
}
