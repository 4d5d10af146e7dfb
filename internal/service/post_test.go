package service

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/framing/framingtest"
)

// The tests below cover the journal's post path (DESIGN.md §10, §15): a
// worker hands its terminal record to the commit queue and claims the
// next job, so the record becomes durable up to one commit after the
// state became visible.

// instantScheduler is a journaled scheduler over a backend that costs
// nothing, started.
func instantScheduler(tb testing.TB, path string, workers int) *Scheduler {
	tb.Helper()
	s, err := NewScheduler(Options{
		Workers:     workers,
		QueueLimit:  2048,
		JournalPath: path,
		Backends:    map[string]Backend{"stub": NullBackend{}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	s.Start()
	return s
}

func stubSpecs(first, n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = stubSpec(int64(first + i))
	}
	return specs
}

// nullSpecs are n null-backend jobs seeded first, first+1, ...
func nullSpecs(first, n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Backend: BackendNull, Seed: int64(first + i)}
	}
	return specs
}

// waitDone polls until n jobs are done.
func waitDone(tb testing.TB, s *Scheduler, n int64) {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().Done < n {
		if time.Now().After(deadline) {
			tb.Fatalf("%d of %d jobs done at the deadline", s.Metrics().Done, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestPostedTerminalsShareCommits: one worker finishing 1 000 instant jobs
// used to pay one fsync per job — a parked worker cannot finish a second
// job while it waits. Posted, the records finished during one fsync ride
// the next. The journal is on the recorder, whose fsync costs nothing, so
// the test sets how long one takes: every fsync after the batch's own
// waits until the worker has finished 100 more jobs (or all of them),
// which a worker parked on its record's fsync never does.
func TestPostedTerminalsShareCommits(t *testing.T) {
	const jobs = 1000
	fsys := framingtest.New(nil)
	var s *Scheduler
	syncs, released, gated := 0, int64(0), true
	fsys.Hook = func(op *framingtest.Op) error {
		if op.Kind != framingtest.Sync || op.Path != recorderJournal {
			return nil
		}
		if syncs++; syncs == 1 || !gated {
			return nil
		}
		want := min(released+100, jobs)
		for deadline := time.Now().Add(5 * time.Second); s.Metrics().Done < want; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Errorf("the worker finished %d jobs, not %d, while a commit was in flight: it waits for its records' fsync", s.Metrics().Done, want)
				gated = false
				break
			}
		}
		released = s.Metrics().Done
		return nil
	}
	s, err := newScheduler(Options{Workers: 1, QueueLimit: 2048, JournalPath: recorderJournal, Backends: map[string]Backend{"stub": NullBackend{}}}, fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()
	if _, err := s.SubmitBatch(stubSpecs(0, jobs)); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, jobs)
	s.Close() // the drain: every posted record is durable when it returns
	m := s.Metrics()
	if m.JournalBatchRecords != 2*jobs || m.JournalAppends != 2*jobs {
		t.Fatalf("journal holds %d records (journal_appends %d), want %d", m.JournalBatchRecords, m.JournalAppends, 2*jobs)
	}
	if m.JournalBatchRecords < 10*m.JournalBatchCommits {
		t.Errorf("%d records in %d commits: under 10 per commit, the worker waits for its fsyncs", m.JournalBatchRecords, m.JournalBatchCommits)
	}
	for _, j := range s.List() {
		if j.State != StateDone {
			t.Fatalf("job %s is %s, want done", j.ID, j.State)
		}
	}
}

// TestPostedTerminalsSurviveClose: Close arrives the moment the last job
// turns done, with posted records still waiting for their commit. They are
// drained, never dropped: the next process finds every job terminal.
func TestPostedTerminalsSurviveClose(t *testing.T) {
	const jobs = 500
	path := filepath.Join(t.TempDir(), "journal.wj")
	s := instantScheduler(t, path, 4)
	if _, err := s.SubmitBatch(stubSpecs(0, jobs)); err != nil {
		t.Fatal(err)
	}
	for s.Metrics().Done < jobs {
		runtime.Gosched()
	}
	s.Close()

	b := newStubBackend()
	s2 := journalScheduler(t, path, b)
	if m := s2.Metrics(); m.Resumed != 0 || m.Done != jobs || m.JournalDroppedBytes != 0 {
		t.Errorf("after a graceful stop: resumed %d, done %d, dropped bytes %d; want 0, %d, 0", m.Resumed, m.Done, m.JournalDroppedBytes, jobs)
	}
}

// TestPostedKillCopyResumesExactlyOnce is the SIGKILL contract with
// records in flight: the journal file is copied while workers run — what a
// kill at that moment leaves on disk, a half-written batch included — and
// a process started on the copy must find every acknowledged submission,
// keep every job whose terminal record made it, and run each of the
// others exactly once.
func TestPostedKillCopyResumesExactlyOnce(t *testing.T) {
	const batches, perBatch = 40, 25
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wj")
	s := instantScheduler(t, path, 4)

	type kill struct {
		raw   []byte
		acked int // jobs whose submit had been acknowledged when the copy began
	}
	var kills []kill
	var acked atomic.Int64
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := 0; i < batches; i++ {
			if _, err := s.SubmitBatch(stubSpecs(i*perBatch, perBatch)); err != nil {
				t.Errorf("SubmitBatch: %v", err)
				return
			}
			acked.Add(perBatch)
		}
	}()
	for _, at := range []int64{1, batches * perBatch / 3, batches * perBatch * 2 / 3, batches * perBatch} {
		for acked.Load() < at && !t.Failed() {
			runtime.Gosched()
		}
		n := int(acked.Load())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kills = append(kills, kill{raw, n})
	}
	// The same kill ten bytes earlier: a tail that is certainly torn (and
	// may have cost an acknowledged submit, so none is asserted).
	kills = append(kills, kill{kills[1].raw[:len(kills[1].raw)-10], 0})
	<-submitted
	waitDone(t, s, batches*perBatch)
	s.Close()
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for i, k := range kills {
		// The copy is a prefix of the journal as it ended, and recovery
		// keeps every whole record of it: a torn tail costs the torn
		// record and nothing before it.
		if !bytes.Equal(k.raw, final[:len(k.raw)]) {
			t.Fatalf("kill %d: the copy is not a prefix of the final journal", i)
		}
		whole, good := oracleRead(k.raw)
		copyPath := filepath.Join(dir, fmt.Sprintf("kill-%d.wj", i))
		if err := os.WriteFile(copyPath, k.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		b := newStubBackend()
		s2 := journalScheduler(t, copyPath, b)
		if dropped := s2.Metrics().JournalDroppedBytes; dropped != len(k.raw)-good {
			t.Errorf("kill %d: %d bytes dropped, want the %d after the last whole record", i, dropped, len(k.raw)-good)
		}

		submits := map[string]int64{} // ID -> seed
		terminal := map[string]bool{}
		for _, r := range whole {
			if r.Op == recSubmit {
				submits[r.ID] = r.Spec.Seed
				continue
			}
			if _, ok := submits[r.ID]; !ok {
				t.Errorf("kill %d: %s record of %s precedes its submit", i, r.Op, r.ID)
			}
			terminal[r.ID] = true
		}
		if len(submits) < k.acked {
			t.Errorf("kill %d: %d submissions on disk, %d were acknowledged", i, len(submits), k.acked)
		}
		list := s2.List()
		if len(list) != len(submits) {
			t.Fatalf("kill %d: recovered %d jobs, the copy holds %d submissions", i, len(list), len(submits))
		}
		for _, j := range list {
			if want := terminal[j.ID]; j.State.Terminal() != want {
				t.Errorf("kill %d: job %s recovered %s, terminal record on disk: %v", i, j.ID, j.State, want)
			}
		}
		t.Logf("kill %d: %d bytes, %d dropped, %d submits (%d acked), %d terminal", i, len(k.raw), len(k.raw)-good, len(submits), k.acked, len(terminal))
		if resumed := s2.Metrics().Resumed; int(resumed) != len(submits)-len(terminal) {
			t.Errorf("kill %d: resumed %d, want %d", i, resumed, len(submits)-len(terminal))
		}

		s2.Start()
		waitDone(t, s2, int64(len(submits)))
		for id, seed := range submits {
			want := 1
			if terminal[id] {
				want = 0
			}
			if n := b.runCount(seed); n != want {
				t.Errorf("kill %d: job %s (terminal on disk: %v) ran %d times after the restart, want %d", i, id, terminal[id], n, want)
			}
		}
		s2.Close()
	}
}

// TestPostedToFailedJournal takes the journal's file away under running
// jobs: they still finish in memory, their records are refused and counted
// nowhere, submissions keep answering 500 (ack-after-fsync is untouched),
// and neither a worker nor Close hangs on a commit that cannot happen.
func TestPostedToFailedJournal(t *testing.T) {
	b := newStubBackend()
	b.block = make(chan struct{})
	const jobs = 6
	b.started = make(chan int64, jobs)
	s, err := NewScheduler(Options{
		Workers:     2,
		JournalPath: filepath.Join(t.TempDir(), "journal.wj"),
		Backends:    map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)

	admitted, err := s.SubmitBatch(stubSpecs(0, jobs))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started // both workers hold a job; the other four are queued
	<-b.started
	if err := s.journal.f.Close(); err != nil {
		t.Fatal(err)
	}
	close(b.block)
	for _, j := range admitted {
		waitState(t, s, j.ID, StateDone)
	}
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"backend":"stub","seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("submit over the failed journal = %d, want 500", resp.StatusCode)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs on a journal that cannot commit")
	}
	if m := s.Metrics(); m.Done != jobs || m.JournalAppends != jobs {
		t.Errorf("done %d, journal_appends %d; want %d done and only the %d submit records counted", m.Done, m.JournalAppends, jobs, jobs)
	}
}

// TestPostLimitZeroParksEveryPost pins the ablation arm of
// BenchmarkSchedulerDrain: with the post limit at 0 a post waits for its
// fsync like an Append, so one worker makes exactly one terminal record
// durable per commit — the scheduler as it was before records were posted.
// The worker starts once the batch is durable, so no record is held.
func TestPostLimitZeroParksEveryPost(t *testing.T) {
	const jobs = 50
	s, err := NewScheduler(Options{
		Workers:     1,
		JournalPath: filepath.Join(t.TempDir(), "journal.wj"),
		Backends:    map[string]Backend{"stub": NullBackend{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.journal.postLimit = 0
	if _, err := s.SubmitBatch(stubSpecs(0, jobs)); err != nil {
		t.Fatal(err)
	}
	s.Start()
	waitDone(t, s, jobs)
	s.Close()
	if js := s.journal.Stats(); js.Records != 2*jobs || js.Commits != 1+jobs {
		t.Errorf("%d records in %d commits, want %d in %d: the batch's, then one per finished job", js.Records, js.Commits, 2*jobs, 1+jobs)
	}

	// The same wait, seen from the journal: the record is durable when
	// post returns.
	jr, _, err := OpenJournal(filepath.Join(t.TempDir(), "journal.wj"))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	jr.postLimit = 0
	frame, err := frameRecords(nil, []record{{Op: recCancel, ID: "j000001"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.post(frame, 1); err != nil || jr.Stats().Records != 1 {
		t.Errorf("post at limit 0: err %v, %d records durable on return; want nil, 1", err, jr.Stats().Records)
	}
	jr.Close()
	if err := jr.post(frame, 1); !errors.Is(err, ErrJournalClosed) {
		t.Errorf("post after Close = %v, want ErrJournalClosed", err)
	}
}

// BenchmarkSchedulerDrain is the claim/complete/journal sweep with the
// backend's cost at zero, and the post path's ablation: 5 000 jobs an
// iteration through SubmitBatch in batches of 500 (backing off while the
// queue is full, as a planter does) against a real journal. "parked" sets
// the post limit to 0 — every worker waits for the fsync covering its
// record, as before — so posted vs parked is what posting buys.
func BenchmarkSchedulerDrain(b *testing.B) {
	const jobs, batch = 5000, 500
	specs := stubSpecs(0, jobs)
	for _, mode := range []string{"posted", "parked"} {
		for _, workers := range []string{"1", "max"} {
			b.Run(mode+"/workers="+workers, func(b *testing.B) {
				n := 1
				if workers == "max" {
					n = runtime.GOMAXPROCS(0)
				}
				s := instantScheduler(b, filepath.Join(b.TempDir(), "journal.wj"), n)
				if mode == "parked" {
					s.journal.postLimit = 0
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for rest := specs; len(rest) > 0; {
						_, err := s.SubmitBatch(rest[:batch])
						switch {
						case err == nil:
							rest = rest[batch:]
						case errors.Is(err, ErrQueueFull):
							time.Sleep(200 * time.Microsecond)
						default:
							b.Fatal(err)
						}
					}
					waitDone(b, s, int64(jobs*(i+1)))
				}
				b.StopTimer()
				s.Close()
				js := s.journal.Stats()
				b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
				b.ReportMetric(float64(js.Records)/float64(js.Commits), "records/commit")
			})
		}
	}
}

// BenchmarkServiceSubmit is the group commit's justification: 256 jobs an
// iteration admitted against a real journal, by sequential Submit calls —
// each its own commit and fsync — or by one SubmitBatch, whose records
// share one. The scheduler is not started, so admission and the journal
// are all that runs.
func BenchmarkServiceSubmit(b *testing.B) {
	const batch = 256
	for _, mode := range []string{"fsync-per-record", "group-commit"} {
		b.Run(mode, func(b *testing.B) {
			s, err := NewScheduler(Options{
				Workers:     8,
				QueueLimit:  1 << 30, // admission control off: this measures throughput, not shedding
				JournalPath: filepath.Join(b.TempDir(), "journal.wj"),
				Backends:    map[string]Backend{BackendNull: NullBackend{}},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				specs := nullSpecs(i*batch, batch)
				if mode == "group-commit" {
					_, err = s.SubmitBatch(specs)
				}
				for k := 0; k < len(specs) && mode == "fsync-per-record" && err == nil; k++ {
					_, err = s.Submit(specs[k])
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
