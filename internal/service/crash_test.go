package service

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/framing"
	"github.com/nal-epfl/wehey/internal/framing/framingtest"
)

// recorderJournal is where tests put the journal on a framingtest.Recorder.
const recorderJournal = "campaign/journal.wj"

// crashScheduler opens a scheduler over the journal at recorderJournal on
// fsys, running null-backend jobs on b.
func crashScheduler(t *testing.T, fsys framing.FS, b Backend) *Scheduler {
	t.Helper()
	s, err := newScheduler(Options{Workers: 2, JournalPath: recorderJournal, Backends: map[string]Backend{BackendNull: b}}, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitEnded spins until n jobs are terminal.
func waitEnded(t *testing.T, s *Scheduler, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m := s.Metrics(); m.Done+m.Failed+m.Canceled < n; m = s.Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs ended at the deadline", m.Done+m.Failed+m.Canceled, n)
		}
		runtime.Gosched()
	}
}

// TestCrashStatesKeepTheContract enumerates the crashes of a campaign
// (ALICE-style, on the recorded operation log): four batches of four
// jobs, the last finishing while its fsync is held, an operator cancel,
// two workers posting terminal records, a graceful stop, a torn copy of
// the journal put in place and a restart that compacts it and re-runs
// the job whose record was torn. For every
// prefix of the log and every way its unsynced writes can persist
// (framingtest.Crash), a scheduler reopened on that disk must keep
// DESIGN.md §10's contract: every acknowledged submit is there, no
// terminal record precedes its submit, a job with a terminal record on
// disk never runs again, every other job runs exactly once, and a torn
// tail is dropped and counted. The read-only loader sees every job too.
func TestCrashStatesKeepTheContract(t *testing.T) {
	fsys := framingtest.New(nil)
	acked := map[string]int{} // job ID -> log length when its submit was acknowledged
	submit := func(s *Scheduler, first int) {
		jobs, err := s.SubmitBatch(nullSpecs(first, 4))
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			acked[j.ID] = fsys.Len()
		}
	}
	b := newStubBackend()
	var s *Scheduler
	// The fourth batch's fsync waits until its jobs have finished: their
	// terminal records are held, not queued behind the submit, and go out
	// as one burst once it is durable.
	var step atomic.Int32 // 1: the batch is being submitted; 2: its submits are written
	fsys.Hook = func(op *framingtest.Op) error {
		switch {
		case op.Kind == framingtest.Write && bytes.Contains(op.Data, []byte(`"j000013"`)):
			step.CompareAndSwap(1, 2)
		case op.Kind == framingtest.Sync && step.CompareAndSwap(2, 3):
			if !waitFor(func() bool {
				return b.runCount(12)+b.runCount(13)+b.runCount(14)+b.runCount(15) == 4 && s.Metrics().Running == 0
			}) {
				t.Error("the fourth batch did not run while its fsync was held")
			}
			s.journal.mu.Lock()
			queued := s.journal.queued
			s.journal.mu.Unlock()
			if queued != 0 {
				t.Errorf("%d terminal records were queued before their submits were durable", queued)
			}
		}
		return nil
	}
	s = crashScheduler(t, fsys, b)
	submit(s, 0)
	if _, err := s.Cancel("j000001"); err != nil {
		t.Fatal(err)
	}
	s.Start()
	submit(s, 4)
	submit(s, 8)
	waitEnded(t, s, 12)

	step.Store(1) // the fourth batch, held at its fsync by the hook
	submit(s, 12)
	waitEnded(t, s, 16)
	if m := s.Metrics(); m.FinishedBeforeDurable < 4 {
		t.Fatalf("%d jobs finished before their submit was durable, want at least the fourth batch's 4", m.FinishedBeforeDurable)
	}
	s.Close()
	raw := fsys.Files()[recorderJournal]
	if err := framing.Replace(fsys, recorderJournal, raw[:len(raw)-10], true); err != nil {
		t.Fatal(err)
	}
	s = crashScheduler(t, fsys, NullBackend{})
	if m := s.Metrics(); m.JournalDroppedBytes == 0 || m.Resumed != 1 {
		t.Fatalf("the torn copy reopened with %d bytes dropped and %d jobs resumed, want some and 1", m.JournalDroppedBytes, m.Resumed)
	}
	s.Start()
	waitEnded(t, s, 16)
	s.Close()

	states := 0
	for n := 0; n <= fsys.Len(); n++ {
		for _, img := range fsys.Crash(n, int64(n)) {
			checkCrashState(t, framingtest.New(img), n, acked)
			states++
		}
	}
	t.Logf("%d crash states checked, %d logged operations", states, fsys.Len())
}

// checkCrashState reopens a scheduler on the disk a crash after the first
// n logged operations left and checks the recovery contract.
func checkCrashState(t *testing.T, disk *framingtest.Recorder, n int, acked map[string]int) {
	t.Helper()
	raw, recs, good, _ := readJournal(disk, recorderJournal) // a missing journal has no records
	submits, terminal := map[string]int64{}, map[string]bool{}
	for _, r := range recs {
		if r.Op == recSubmit {
			submits[r.ID] = r.Spec.Seed
			continue
		}
		if _, ok := submits[r.ID]; !ok {
			t.Fatalf("crash after op %d: the %s record of %s precedes its submit", n, r.Op, r.ID)
		}
		terminal[r.ID] = true
	}
	for id, at := range acked {
		if _, ok := submits[id]; !ok && at <= n {
			t.Fatalf("crash after op %d: %s, acknowledged after op %d, is not on disk", n, id, at)
		}
	}

	if jobs, err := loadJournalJobs(disk, recorderJournal); good > 0 && (err != nil || len(jobs) != len(submits)) {
		t.Fatalf("crash after op %d: the read-only loader found %d jobs (%v), the records %d", n, len(jobs), err, len(submits))
	}

	b := newStubBackend()
	s := crashScheduler(t, disk, b)
	defer s.Close()
	m := s.Metrics()
	if m.JournalDroppedBytes != len(raw)-good || int(m.Resumed) != len(submits)-len(terminal) {
		t.Fatalf("crash after op %d: %d bytes dropped and %d jobs resumed, want %d and %d",
			n, m.JournalDroppedBytes, m.Resumed, len(raw)-good, len(submits)-len(terminal))
	}
	s.Start()
	waitEnded(t, s, int64(len(submits)))
	for id, seed := range submits {
		want := 1
		if terminal[id] {
			want = 0
		}
		if runs := b.runCount(seed); runs != want {
			t.Fatalf("crash after op %d: job %s (terminal on disk: %v) ran %d times, want %d", n, id, terminal[id], runs, want)
		}
	}
}
