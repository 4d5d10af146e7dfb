package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/framing"
)

// writeJournal hand-builds a journal file from records, simulating the
// state a killed process leaves behind (OpenJournal + Append + no Close is
// exactly a SIGKILL: every record was fsynced, nothing else exists).
func writeJournal(t *testing.T, path string, records ...record) {
	t.Helper()
	jr, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := jr.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

func submitRecord(id string, seq uint64, seed int64) record {
	spec := stubSpec(seed)
	return record{Op: recSubmit, ID: id, Seq: seq, Spec: &spec}
}

// journalScheduler opens a scheduler over the journal with the stub
// backend and a manual clock, NOT started (tests inspect recovery first).
func journalScheduler(t *testing.T, path string, b Backend) *Scheduler {
	t.Helper()
	s, err := NewScheduler(Options{
		Workers:     2,
		Clock:       clock.NewManual(time.Unix(1700000000, 0)),
		JournalPath: path,
		Backends:    map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestJournalResumeAfterKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j", "journal.wj")
	// The dead process submitted three jobs and completed the first.
	writeJournal(t, path,
		submitRecord("j000001", 1, 1),
		submitRecord("j000002", 2, 2),
		submitRecord("j000003", 3, 3),
		record{Op: recDone, ID: "j000001", Result: &Result{Backend: "stub", Detail: "old"}},
	)

	b := newStubBackend()
	s := journalScheduler(t, path, b)
	// Recovery state before any execution.
	if got, _ := s.Get("j000001"); got.State != StateDone || got.Result == nil || got.Result.Detail != "old" {
		t.Fatalf("completed job not recovered: %+v", got)
	}
	for _, id := range []string{"j000002", "j000003"} {
		if got, _ := s.Get(id); got.State != StateQueued || !got.Resumed {
			t.Fatalf("job %s = %s resumed=%v, want queued resumed", id, got.State, got.Resumed)
		}
	}

	s.Start()
	waitState(t, s, "j000002", StateDone)
	waitState(t, s, "j000003", StateDone)
	// The completed job must not have run again; the others exactly once.
	if n := b.runCount(1); n != 0 {
		t.Errorf("done job re-ran %d times", n)
	}
	for seed := int64(2); seed <= 3; seed++ {
		if n := b.runCount(seed); n != 1 {
			t.Errorf("resumed job seed=%d ran %d times, want 1", seed, n)
		}
	}
	// New submissions continue the sequence, not reuse recovered IDs.
	job, err := s.Submit(stubSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if job.Seq != 4 || job.ID != "j000004" {
		t.Errorf("post-recovery submission = %s seq %d, want j000004 seq 4", job.ID, job.Seq)
	}
	if m := s.Metrics(); m.Resumed != 2 {
		t.Errorf("resumed = %d, want 2", m.Resumed)
	}
}

func TestJournalLiveRestartCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	b := newStubBackend()
	b.block = make(chan struct{}) // jobs hang: Close interrupts them
	b.started = make(chan int64, 8)

	s1 := journalScheduler(t, path, b)
	s1.Start()
	if _, err := s1.Submit(stubSpec(1)); err != nil {
		t.Fatal(err)
	}
	<-b.started
	if _, err := s1.Submit(stubSpec(2)); err != nil {
		t.Fatal(err)
	}
	s1.Close() // interrupts the running attempt; nothing completed

	// Second process: jobs run to completion this time.
	b.mu.Lock()
	b.block = nil
	b.mu.Unlock()
	s2 := journalScheduler(t, path, b)
	s2.Start()
	j1 := waitState(t, s2, "j000001", StateDone)
	waitState(t, s2, "j000002", StateDone)
	if !j1.Resumed {
		t.Error("restarted job not marked resumed")
	}
	s2.Close()

	// Third process: everything is terminal; nothing runs again.
	s3 := journalScheduler(t, path, newFailingStub(t))
	if got, _ := s3.Get("j000001"); got.State != StateDone {
		t.Errorf("job 1 = %s after third open, want done", got.State)
	}
	if got, _ := s3.Get("j000002"); got.State != StateDone {
		t.Errorf("job 2 = %s after third open, want done", got.State)
	}
}

// newFailingStub is a backend that fails the test if it ever runs.
func newFailingStub(t *testing.T) Backend {
	b := newStubBackend()
	b.fail = func(seed int64, _ int) error {
		t.Errorf("terminal job re-ran (seed %d)", seed)
		return errors.New("must not run")
	}
	return b
}

func TestJournalTornTailDroppedAndRequeued(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	writeJournal(t, path,
		submitRecord("j000001", 1, 1),
		record{Op: recDone, ID: "j000001"},
		submitRecord("j000002", 2, 2),
	)
	// Simulate a crash mid-append: half a record of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte("\x40\x00\x00\x00\x00\x00\x00\x00torn-checksum-and-truncated")
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := newStubBackend()
	s := journalScheduler(t, path, b)
	s.Start()
	if m := s.Metrics(); m.JournalDroppedBytes != len(torn) {
		t.Errorf("dropped bytes = %d, want %d", m.JournalDroppedBytes, len(torn))
	}
	// The valid prefix survived: job 1 done, job 2 re-queued and runnable.
	if got, _ := s.Get("j000001"); got.State != StateDone {
		t.Errorf("job 1 = %s, want done", got.State)
	}
	waitState(t, s, "j000002", StateDone)
	s.Close()

	// The compaction cleaned the tail: reopening finds a pristine file.
	_, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DroppedBytes != 0 {
		t.Errorf("reopen dropped %d bytes, want 0 after compaction", rec.DroppedBytes)
	}
	// Original submits + done, plus the re-run's terminal record.
	if len(rec.Records) != 4 {
		t.Errorf("reopen found %d records, want 4", len(rec.Records))
	}
}

func TestJournalDuplicateTerminalSuppressed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	writeJournal(t, path,
		submitRecord("j000001", 1, 1),
		record{Op: recDone, ID: "j000001", Result: &Result{Detail: "first"}},
		record{Op: recDone, ID: "j000001", Result: &Result{Detail: "second"}},
		record{Op: recFail, ID: "j000001", Error: "late failure"},
	)
	s := journalScheduler(t, path, newFailingStub(t))
	got, _ := s.Get("j000001")
	if got.State != StateDone || got.Result == nil || got.Result.Detail != "first" {
		t.Errorf("job = %s result %+v, want done with the first result", got.State, got.Result)
	}
	if m := s.Metrics(); m.JournalDupTerminals != 2 {
		t.Errorf("dup terminals = %d, want 2", m.JournalDupTerminals)
	}
}

func TestJournalCorruptHeadQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	jr, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if rec.DroppedBytes != len("not a journal at all") || len(rec.Records) != 0 {
		t.Errorf("recovery = %+v, want every byte dropped", rec)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt original not preserved: %v", err)
	}
	// The fresh file accepts appends and round-trips.
	if err := jr.Append(submitRecord("j000001", 1, 1)); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	_, rec2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) != 1 || rec2.DroppedBytes != 0 {
		t.Errorf("reopen = %+v, want 1 clean record", rec2)
	}
}

func TestJournalChecksumFlipDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	writeJournal(t, path,
		submitRecord("j000001", 1, 1),
		submitRecord("j000002", 2, 2),
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // flip a payload byte of the last record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0].ID != "j000001" {
		t.Errorf("records = %+v, want only the intact first record", rec.Records)
	}
	if rec.DroppedBytes == 0 {
		t.Error("flipped record not counted as dropped")
	}
}

func TestJournalRecordRoundTrip(t *testing.T) {
	spec := Spec{Backend: BackendSim, Seed: 7, ServerPair: "A",
		Sim: &SimJob{App: "tcpbulk", Duration: time.Second}}
	in := record{Op: recSubmit, ID: "j000042", Seq: 42, Spec: &spec}
	payload, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	framed := framing.Append(nil, payload)
	got, rest, ok := nextRecord(framed)
	if !ok || len(rest) != 0 {
		t.Fatalf("nextRecord ok=%v rest=%d", ok, len(rest))
	}
	var out record
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Seq != in.Seq || out.Spec.Sim.App != "tcpbulk" {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}

// TestUnencodableRecordRefusedToItsCallerOnly: a record that cannot be
// encoded is an error for the Append that brought it and nothing more —
// the journal keeps accepting records and holds no trace of the bad one.
func TestUnencodableRecordRefusedToItsCallerOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	jr, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := record{Op: recDone, ID: "j000001", Result: &Result{LossRates: [2]float64{math.Inf(1), 0}}}
	if err := jr.AppendBatch([]record{submitRecord("j000001", 1, 1), bad}); err == nil || !strings.Contains(err.Error(), "j000001") {
		t.Fatalf("AppendBatch with an Inf loss rate = %v, want an error naming the record", err)
	}
	if err := jr.Append(submitRecord("j000002", 2, 2)); err != nil {
		t.Fatalf("Append after a refused record: %v", err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	jr, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if len(rec.Records) != 1 || rec.Records[0].ID != "j000002" || rec.DroppedBytes != 0 {
		t.Errorf("reopened journal = %d records (%+v), %d dropped bytes; want the one good record, untouched",
			len(rec.Records), rec.Records, rec.DroppedBytes)
	}
}

// TestUnencodableResultFailsItsJobOnly: a backend handing back a NaN loss
// rate used to lose its own done record and poison the journal for every
// later Submit. Now that job ends failed with an error naming the result,
// the scheduler carries on, and a restart finds a clean journal telling
// the same story.
func TestUnencodableResultFailsItsJobOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	nanForSeed1 := backendFunc(func(ctx context.Context, spec Spec) (*Result, error) {
		res := &Result{Backend: "stub"}
		if spec.Seed == 1 {
			res.LossRates[1] = math.NaN()
		}
		return res, nil
	})
	s := journalScheduler(t, path, nanForSeed1)
	s.Start()
	spec := stubSpec(1)
	spec.MaxAttempts = 1 // no retries: the attempt's failure is terminal at once
	bad, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, s, bad.ID, StateFailed)
	if failed.Result != nil || !strings.Contains(failed.Error, "result") || !strings.Contains(failed.Error, "NaN") {
		t.Errorf("NaN job = %+v; want no result and an error naming the result and the NaN", failed)
	}
	good, err := s.Submit(stubSpec(2))
	if err != nil {
		t.Fatalf("Submit after the NaN job: %v", err)
	}
	waitState(t, s, good.ID, StateDone)
	if _, ok := appendWire(nil, s.List()); !ok {
		t.Error("the listing holding the failed job does not encode")
	}
	s.Close()

	jr, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if len(rec.Records) != 4 || rec.DroppedBytes != 0 {
		t.Errorf("reopened journal: %d records, %d dropped bytes; want 4, 0", len(rec.Records), rec.DroppedBytes)
	}
	recovered := journalScheduler(t, path, nanForSeed1).List() // not started: nothing re-runs
	if len(recovered) != 2 || recovered[0].State != StateFailed || recovered[0].Error != failed.Error || recovered[1].State != StateDone {
		t.Errorf("recovery = %+v; want the failed job with its error, then the done one", recovered)
	}
}
