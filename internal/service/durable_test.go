package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/framing/framingtest"
)

// The tests below cover DESIGN.md §10's split between claimable and
// visible: a job runs as soon as its batch is numbered, but the service
// answers for it only once the batch's fsync has returned.

// gateSync makes fsys hold the next fsync of the journal until release
// is closed, closing syncing when it starts.
func gateSync(fsys *framingtest.Recorder, fault error) (syncing, release chan struct{}) {
	syncing, release = make(chan struct{}), make(chan struct{})
	gated := false
	fsys.Hook = func(op *framingtest.Op) error {
		if op.Kind != framingtest.Sync || op.Path != recorderJournal || gated {
			return nil
		}
		gated = true
		close(syncing)
		<-release
		return fault
	}
	return syncing, release
}

// waitFor spins until cond holds, reporting whether it did within 10 s.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestJobInvisibleUntilDurable: with the submit's fsync held, the job
// runs to its verdict, yet Get, Cancel, the listing and the stream do
// not know it and the journal holds nothing but its submit. Once the
// fsync returns, the submit's answer is already done, finished no
// earlier than that moment, and the held record follows the submit.
func TestJobInvisibleUntilDurable(t *testing.T) {
	fsys := framingtest.New(nil)
	b := newStubBackend()
	s := crashScheduler(t, fsys, b)
	t.Cleanup(s.Close)
	s.Start()
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	syncing, release := gateSync(fsys, nil)
	answer := make(chan Job, 1)
	go func() {
		j, err := s.Submit(Spec{Backend: BackendNull, Seed: 7})
		if err != nil {
			t.Error(err)
		}
		answer <- j
	}()
	<-syncing
	if !waitFor(func() bool { return b.runCount(7) == 1 && s.Metrics().Running == 0 }) {
		t.Fatal("the job did not run while its submit's fsync was held")
	}

	const id = "j000001"
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get before the fsync = %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel before the fsync = %v, want ErrNotFound", err)
	}
	if page := s.ListPage(0, 0); len(page) != 0 {
		t.Errorf("ListPage before the fsync lists %d jobs, want none", len(page))
	}
	var streamed int
	if _, err := c.StreamJobs(ctx, "", func(page []Job) error { streamed += len(page); return nil }); err != nil || streamed != 0 {
		t.Errorf("StreamJobs before the fsync: %d jobs, %v; want none", streamed, err)
	}
	if m := s.Metrics(); m.Done != 0 || m.Submitted != 0 {
		t.Errorf("before the fsync: %d submitted, %d done; want neither counted", m.Submitted, m.Done)
	}
	if _, recs, _, _ := readJournal(fsys, recorderJournal); len(recs) != 1 || recs[0].Op != recSubmit {
		t.Errorf("the journal holds %d records before the fsync, want the submit alone", len(recs))
	}

	published := time.Now()
	close(release)
	j := <-answer
	if j.State != StateDone || j.FinishedAt.Before(published) {
		t.Errorf("the submit answered %s finished at %v, want done at or after the fsync (%v)", j.State, j.FinishedAt, published)
	}
	if got, err := s.Get(id); err != nil || got.State != StateDone {
		t.Errorf("Get after the fsync = %v, %v; want done", got.State, err)
	}
	if page := s.ListPage(0, 0); len(page) != 1 {
		t.Errorf("ListPage after the fsync lists %d jobs, want 1", len(page))
	}
	m, err := c.Metrics(ctx) // over the wire: the counter is served
	if err != nil || m.FinishedBeforeDurable != 1 || m.Done != 1 {
		t.Errorf("/metrics: finished_before_durable %d, done %d (%v); want 1, 1", m.FinishedBeforeDurable, m.Done, err)
	}
	s.Close()
	if _, recs, _, _ := readJournal(fsys, recorderJournal); len(recs) != 2 || recs[0].Op != recSubmit || recs[1].Op != recDone {
		t.Errorf("the journal holds %d records, want the submit then the held done", len(recs))
	}
}

// TestRefusedBatchWhileRunning fails the fsync of a submit whose job is
// already running, ahead of a queued job on the same server pair: the
// running attempt is canceled and not retried, leaves no terminal record,
// every gauge returns to 0, and the pair passes to the queued job.
func TestRefusedBatchWhileRunning(t *testing.T) {
	fsys := framingtest.New(nil)
	b := newStubBackend()
	b.block = make(chan struct{}) // never closed: only a cancel ends a run
	b.started = make(chan int64, 2)
	s, err := newScheduler(Options{
		Workers:     1,
		JournalPath: recorderJournal,
		Retry:       RetryPolicy{MaxAttempts: 3},
		Backends:    map[string]Backend{"stub": b},
	}, fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	queued := stubSpec(1)
	queued.ServerPair = "A"
	if _, err := s.Submit(queued); err != nil { // durable; no worker yet
		t.Fatal(err)
	}

	syncing, release := gateSync(fsys, syscall.EIO)
	refused := stubSpec(2)
	refused.ServerPair, refused.Priority = "A", 10
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(refused)
		errc <- err
	}()
	<-syncing
	s.Start() // the better job runs first, holding the pair
	if seed := <-b.started; seed != 2 {
		t.Fatalf("seed %d ran first, want the refused batch's 2", seed)
	}
	close(release)
	if err := <-errc; !errors.Is(err, syscall.EIO) {
		t.Fatalf("Submit over a failed fsync = %v, want EIO", err)
	}
	// The pair is free while the block is still shut: only its canceled
	// context can have ended the refused run.
	if seed := <-b.started; seed != 1 {
		t.Fatalf("seed %d ran second, want the queued same-pair job's 1", seed)
	}
	close(b.block)
	waitDone(t, s, 1)

	if n := b.runCount(2); n != 1 {
		t.Errorf("the refused job ran %d times, want once: a refused batch is never retried", n)
	}
	if _, err := s.Get("j000002"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of the refused job = %v, want ErrNotFound", err)
	}
	m := s.Metrics()
	if m.Queued != 0 || m.Running != 0 || m.WaitRetry != 0 || m.Retried != 0 || m.Submitted != 1 || m.Done != 1 {
		t.Errorf("metrics %+v: want queued, running, wait_retry, retried 0 and 1 submitted, 1 done", m)
	}
	_, recs, _, _ := readJournal(fsys, recorderJournal)
	for _, r := range recs {
		if r.ID == "j000002" && r.Op != recSubmit {
			t.Errorf("the journal holds a %s record of the refused job", r.Op)
		}
	}
}

// sleepBackend answers after d, as a cache-missing session would.
type sleepBackend time.Duration

func (d sleepBackend) Run(ctx context.Context, spec Spec) (*Result, error) {
	t := time.NewTimer(time.Duration(d))
	defer t.Stop()
	select {
	case <-t.C:
		return &Result{Backend: spec.Backend}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// BenchmarkSubmitToVerdict is one client's session on a real journal:
// Submit, then Get until terminal. ack_us is the submit's fsync-bound
// answer; verdict_after_ack_us is what the client waits after it, 0
// whenever the run fits inside the fsync.
func BenchmarkSubmitToVerdict(b *testing.B) {
	for _, bc := range []struct {
		name    string
		backend Backend
	}{{"backend=instant", NullBackend{}}, {"backend=1ms", sleepBackend(time.Millisecond)}} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := NewScheduler(Options{
				Workers:     1,
				JournalPath: filepath.Join(b.TempDir(), "journal.wj"),
				Backends:    map[string]Backend{"stub": bc.backend},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			s.Start()
			var ack, after time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				j, err := s.Submit(stubSpec(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				acked := time.Now()
				for !j.State.Terminal() {
					time.Sleep(10 * time.Microsecond)
					if j, err = s.Get(j.ID); err != nil {
						b.Fatal(err)
					}
				}
				ack += acked.Sub(start)
				after += time.Since(acked)
			}
			b.ReportMetric(float64(ack.Microseconds())/float64(b.N), "ack_us")
			b.ReportMetric(float64(after.Microseconds())/float64(b.N), "verdict_after_ack_us")
		})
	}
}
