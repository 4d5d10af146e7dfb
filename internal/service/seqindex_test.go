package service

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// The listing index (Scheduler.bySeq) under the conditions that put holes
// in it; TestListPageNeverSkipsConcurrentSubmits holds its visibility rule.

func seqsOf(jobs []Job) []uint64 {
	out := make([]uint64, len(jobs))
	for i, j := range jobs {
		out[i] = j.Seq
	}
	return out
}

// pageThrough lists every job by cursor, with pages of 1, 2, 3, 1, ... jobs.
func pageThrough(t *testing.T, s *Scheduler) []Job {
	t.Helper()
	var all []Job
	var cursor uint64
	for n := 0; ; n++ {
		page := s.ListPage(cursor, 1+n%3)
		if len(page) == 0 {
			return all
		}
		if len(page) > 1+n%3 {
			t.Fatalf("page of %d jobs for limit %d", len(page), 1+n%3)
		}
		all = append(all, page...)
		cursor = page[len(page)-1].Seq
	}
}

// TestListPageStepsOverRefusedBatch: a batch the journal refuses has taken
// its sequence numbers already. They stay holes: no page stops at them or
// returns anything for them, before a restart and after.
func TestListPageStepsOverRefusedBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	s := journalScheduler(t, path, newStubBackend()) // not started: the jobs stay queued
	if _, err := s.SubmitBatch([]Spec{stubSpec(1), stubSpec(2)}); err != nil {
		t.Fatal(err)
	}
	unencodable := stubSpec(4)
	unencodable.Sim = &SimJob{InputFactor: math.NaN()}
	if _, err := s.SubmitBatch([]Spec{stubSpec(3), unencodable, stubSpec(5)}); err == nil {
		t.Fatal("a batch with a NaN in a spec was admitted")
	}
	if _, err := s.SubmitBatch([]Spec{stubSpec(6), stubSpec(7)}); err != nil {
		t.Fatalf("SubmitBatch after a refused batch: %v", err)
	}
	if q := s.Metrics().Queued; q != 4 {
		t.Errorf("%d jobs queued, want 4: the refused batch's reservation must be returned", q)
	}
	if _, err := s.Get("j000004"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of a refused job: %v, want ErrNotFound", err)
	}

	want := []uint64{1, 2, 6, 7}
	check := func(s *Scheduler) {
		t.Helper()
		if got := seqsOf(s.List()); !reflect.DeepEqual(got, want) {
			t.Errorf("List() = %v, want %v", got, want)
		}
		if got := seqsOf(pageThrough(t, s)); !reflect.DeepEqual(got, want) {
			t.Errorf("paged listing = %v, want %v", got, want)
		}
		for after, first := range map[uint64]uint64{1: 2, 2: 6, 3: 6, 4: 6, 5: 6, 6: 7} {
			if page := s.ListPage(after, 1); len(page) != 1 || page[0].Seq != first {
				t.Errorf("ListPage(%d, 1) = %v, want job %d", after, seqsOf(page), first)
			}
		}
	}
	check(s)
	s.Close()
	recovered := journalScheduler(t, path, newStubBackend())
	check(recovered)
	if next, err := recovered.Submit(stubSpec(8)); err != nil || next.Seq != 8 {
		t.Errorf("first submission after recovery = seq %d, %v; want 8", next.Seq, err)
	}
}

// TestListPageAfterRecoveryWithGapsAndDisorder: a journal need not hold
// its submits densely or in order. The recovered index pages exactly what
// List() returns, and numbering resumes past the highest number seen.
func TestListPageAfterRecoveryWithGapsAndDisorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	writeJournal(t, path,
		submitRecord("j000005", 5, 5),
		submitRecord("j000002", 2, 2),
		record{Op: recDone, ID: "j000005", Result: &Result{Backend: "stub"}},
		submitRecord("j000009", 9, 9),
		submitRecord("j000003", 3, 3),
		record{Op: recCancel, ID: "j000003"},
	)
	s := journalScheduler(t, path, newStubBackend()) // not started
	all := s.List()
	if got, want := seqsOf(all), []uint64{2, 3, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List() = %v, want %v", got, want)
	}
	if paged := pageThrough(t, s); !reflect.DeepEqual(paged, all) {
		t.Errorf("paged listing = %+v\nList() = %+v", paged, all)
	}
	if all[1].State != StateCanceled || all[2].State != StateDone || all[0].State != StateQueued {
		t.Errorf("recovered states = %s %s %s %s", all[0].State, all[1].State, all[2].State, all[3].State)
	}
	next, err := s.Submit(stubSpec(10))
	if err != nil || next.Seq != 10 {
		t.Fatalf("first submission after recovery = seq %d, %v; want 10", next.Seq, err)
	}
	if got, want := seqsOf(s.ListPage(5, 0)), []uint64{9, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("ListPage(5, 0) = %v, want %v", got, want)
	}
}

// TestListPageCursorAndLimitEdges: a cursor past the last number is an
// empty page, never nil (the admin plane writes it as []); a limit of
// zero or less is no limit.
func TestListPageCursorAndLimitEdges(t *testing.T) {
	s, _ := newTestScheduler(t, Options{}, newStubBackend())
	if page := s.ListPage(0, 10); page == nil || len(page) != 0 {
		t.Errorf("page of an empty scheduler = %#v, want empty and not nil", page)
	}
	if _, err := s.SubmitBatch([]Spec{stubSpec(1), stubSpec(2), stubSpec(3)}); err != nil {
		t.Fatal(err)
	}
	for _, after := range []uint64{3, 4, 1000, math.MaxUint64} {
		if page := s.ListPage(after, 10); page == nil || len(page) != 0 {
			t.Errorf("ListPage(%d, 10) = %v, want empty and not nil", after, seqsOf(page))
		}
	}
	for _, limit := range []int{0, -1, math.MinInt} {
		if got := seqsOf(s.ListPage(1, limit)); !reflect.DeepEqual(got, []uint64{2, 3}) {
			t.Errorf("ListPage(1, %d) = %v, want [2 3]", limit, got)
		}
	}
	if got := seqsOf(s.ListPage(0, 2)); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Errorf("ListPage(0, 2) = %v, want [1 2]", got)
	}
}
