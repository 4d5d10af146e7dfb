package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
)

func TestSubmitBatchRunsAll(t *testing.T) {
	b := newStubBackend()
	s, _ := newTestScheduler(t, Options{Workers: 4}, b)
	specs := make([]Spec, 10)
	for i := range specs {
		specs[i] = stubSpec(int64(100 + i))
	}
	jobs, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(specs) {
		t.Fatalf("admitted %d jobs, want %d", len(jobs), len(specs))
	}
	for i, j := range jobs {
		if j.Seq != uint64(i+1) || j.Spec.Seed != specs[i].Seed {
			t.Errorf("job %d = seq %d seed %d, want seq %d seed %d",
				i, j.Seq, j.Spec.Seed, i+1, specs[i].Seed)
		}
		waitState(t, s, j.ID, StateDone)
	}
	m := s.Metrics()
	if m.BatchSubmits != 1 || m.BatchJobs != 10 {
		t.Errorf("batch counters = %d/%d, want 1/10", m.BatchSubmits, m.BatchJobs)
	}
	if m.Done != 10 {
		t.Errorf("done = %d, want 10", m.Done)
	}
}

func TestSubmitBatchAllOrNothing(t *testing.T) {
	b := newStubBackend()
	s, _ := newTestScheduler(t, Options{Workers: 1, QueueLimit: 4}, b)

	// One bad spec poisons the whole batch; nothing is admitted.
	specs := []Spec{stubSpec(1), {Backend: ""}, stubSpec(3)}
	if _, err := s.SubmitBatch(specs); err == nil {
		t.Fatal("batch with an invalid spec admitted")
	}
	if m := s.Metrics(); m.Submitted != 0 {
		t.Errorf("submitted = %d after rejected batch, want 0", m.Submitted)
	}

	// A batch that fits the limit but not the remaining capacity is
	// rejected whole, to be sent again: the queue holds a job behind the
	// one the worker is blocked in.
	b.block = make(chan struct{})
	defer close(b.block)
	if _, err := s.SubmitBatch(stubSpecs(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitBatch(stubSpecs(3, 4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("batch into a busy queue: error = %v, want ErrQueueFull", err)
	}
	// One larger than the limit can never be admitted: a different error,
	// naming both numbers, and not a rejection a retry would cure.
	_, err := s.SubmitBatch(stubSpecs(3, 5))
	if !errors.Is(err, ErrBatchTooLarge) || errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized batch error = %v, want ErrBatchTooLarge", err)
	}
	if !contains(err.Error(), "5 jobs") || !contains(err.Error(), "limit 4") {
		t.Errorf("oversized batch error %q does not name the batch size and the limit", err)
	}
	if m := s.Metrics(); m.Submitted != 2 || m.Rejected != 4 {
		t.Errorf("submitted/rejected = %d/%d after the refused batches, want 2/4", m.Submitted, m.Rejected)
	}
}

// TestBatchKillResumeExactlyOnce is the group-commit durability core:
// many goroutines batch-submit against a journaled scheduler, the
// process "dies" (the scheduler is abandoned without Close, exactly the
// state a SIGKILL leaves), and the next process must resume every
// acknowledged job exactly once — no acknowledged job lost, no
// unacknowledged job invented.
func TestBatchKillResumeExactlyOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	s1, err := NewScheduler(Options{
		Workers:    2,
		QueueLimit: 4096,
		Clock:      clock.NewManual(time.Unix(1700000000, 0)),
		// Concurrent batches share group commits through fsync
		// backpressure on the single committer.
		JournalPath: path,
		Backends:    map[string]Backend{"stub": newStubBackend()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately never Start or Close s1: jobs stay queued, and
	// abandoning the scheduler leaves exactly the on-disk state a kill
	// would (every acknowledged record fsynced, nothing else).

	const goroutines, perBatch = 8, 25
	acked := make([][]Job, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs := make([]Spec, perBatch)
			for i := range specs {
				specs[i] = stubSpec(int64(g*1000 + i))
			}
			jobs, err := s1.SubmitBatch(specs)
			if err != nil {
				t.Errorf("SubmitBatch: %v", err)
				return
			}
			acked[g] = jobs
		}()
	}
	wg.Wait()

	// "Restart": recover the journal into a fresh scheduler.
	b2 := newStubBackend()
	s2 := journalScheduler(t, path, b2)
	wantJobs := map[string]int64{}
	for _, jobs := range acked {
		for _, j := range jobs {
			wantJobs[j.ID] = j.Spec.Seed
		}
	}
	list := s2.List()
	if len(list) != len(wantJobs) {
		t.Fatalf("recovered %d jobs, want %d (acked jobs only)", len(list), len(wantJobs))
	}
	for _, j := range list {
		seed, ok := wantJobs[j.ID]
		if !ok {
			t.Fatalf("recovered job %s was never acknowledged", j.ID)
		}
		if j.Spec.Seed != seed || j.State != StateQueued || !j.Resumed {
			t.Fatalf("job %s = seed %d state %s resumed %v, want seed %d queued resumed",
				j.ID, j.Spec.Seed, j.State, j.Resumed, seed)
		}
	}

	s2.Start()
	for id := range wantJobs {
		waitState(t, s2, id, StateDone)
	}
	// Exactly once: every seed ran a single time.
	for _, seed := range wantJobs {
		if n := b2.runCount(seed); n != 1 {
			t.Errorf("resumed job seed=%d ran %d times, want 1", seed, n)
		}
	}
}

// TestJournalTornTailAcrossBatchBoundary checks the recovery grain: the
// batch is a durability unit (one fsync) but not a recovery-atomicity
// unit — records are individually framed, so a torn tail inside the
// second batch keeps the first batch and the second's intact prefix.
func TestJournalTornTailAcrossBatchBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	jr, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	batch1 := []record{submitRecord("j000001", 1, 1), submitRecord("j000002", 2, 2)}
	batch2 := []record{submitRecord("j000003", 3, 3), submitRecord("j000004", 4, 4)}
	if err := jr.AppendBatch(batch1); err != nil {
		t.Fatal(err)
	}
	if err := jr.AppendBatch(batch2); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-way through batch2's last record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want 3 (batch1 whole + batch2 prefix)", len(rec.Records))
	}
	for i, want := range []string{"j000001", "j000002", "j000003"} {
		if rec.Records[i].ID != want {
			t.Errorf("record %d = %s, want %s", i, rec.Records[i].ID, want)
		}
	}
	if rec.DroppedBytes == 0 {
		t.Error("torn record not counted as dropped")
	}
}

// TestJournalCloseDrainsInFlightAppends is the Close-contract regression
// test: appends racing Close are either fsynced-and-acknowledged or
// rejected with ErrJournalClosed — an append must never return nil
// without its record surviving on disk. Close arrives once every appender
// is running, so it lands among queued, in-commit and not-yet-queued
// appends.
func TestJournalCloseDrainsInFlightAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wj")
	jr, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	const appends = 32
	ackErr := make([]error, appends)
	var wg, running sync.WaitGroup
	for i := 0; i < appends; i++ {
		i := i
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			running.Done()
			ackErr[i] = jr.Append(submitRecord(fmt.Sprintf("j%06d", i+1), uint64(i+1), int64(i)))
		}()
	}
	running.Wait()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Every nil-returning append's record must be recoverable.
	_, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, r := range rec.Records {
		onDisk[r.ID] = true
	}
	var ackedOK, closed int
	for i, err := range ackErr {
		id := fmt.Sprintf("j%06d", i+1)
		switch {
		case err == nil:
			ackedOK++
			if !onDisk[id] {
				t.Errorf("append %s acknowledged but not on disk", id)
			}
		case errors.Is(err, ErrJournalClosed):
			closed++
		default:
			t.Errorf("append %s: unexpected error %v", id, err)
		}
	}
	if ackedOK+closed != appends {
		t.Errorf("acked %d + closed %d != %d appends", ackedOK, closed, appends)
	}
	if len(rec.Records) < ackedOK {
		t.Errorf("%d records on disk < %d acknowledged", len(rec.Records), ackedOK)
	}

	// Post-Close appends fail typed.
	if err := jr.Append(submitRecord("j999999", 999999, 0)); !errors.Is(err, ErrJournalClosed) {
		t.Errorf("append after close = %v, want ErrJournalClosed", err)
	}
	// Close is idempotent.
	if err := jr.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestSchedulerContentionDrainsToTerminal puts every caller of the
// scheduler lock on it at once under -race — batched and single
// submissions across many distinct pairs, a contended hot pair, concurrent
// cancels, and metrics/list/get readers — and checks that every job ends
// terminal and the gauges return to zero.
func TestSchedulerContentionDrainsToTerminal(t *testing.T) {
	b := newStubBackend()
	s, _ := newTestScheduler(t, Options{Workers: 8, QueueLimit: 4096}, b)

	const submitters, perBatch = 6, 20
	var wg sync.WaitGroup
	ids := make(chan string, submitters*perBatch*2)
	for g := 0; g < submitters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs := make([]Spec, perBatch)
			for i := range specs {
				specs[i] = stubSpec(int64(g*1000 + i))
				switch i % 3 {
				case 0:
					specs[i].ServerPair = "hot" // everyone fights for one pair
				case 1:
					specs[i].ServerPair = fmt.Sprintf("pair-%d-%d", g, i)
				}
			}
			jobs, err := s.SubmitBatch(specs)
			if err != nil {
				t.Errorf("SubmitBatch: %v", err)
				return
			}
			for _, j := range jobs {
				ids <- j.ID
			}
			// Singles interleave with batches.
			for i := 0; i < perBatch; i++ {
				j, err := s.Submit(Spec{Backend: "stub", Seed: int64(g*1000 + 500 + i),
					ServerPair: "hot"})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				ids <- j.ID
			}
		}()
	}
	// Readers and cancelers race the submitters.
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				case id := <-ids:
					if _, err := s.Get(id); err != nil {
						t.Errorf("Get(%s): %v", id, err)
					}
					if id[len(id)-1]%7 == 0 {
						s.Cancel(id) // races the claim path by design
					}
				default:
					s.Metrics()
					s.ListPage(0, 50)
				}
			}
		}()
	}
	wg.Wait()
	total := int64(submitters * perBatch * 2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := s.Metrics()
		if m.Done+m.Failed+m.Canceled == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stuck: %+v (want %d terminal)", m, total)
		}
		time.Sleep(time.Millisecond)
	}
	close(stopReaders)
	readers.Wait()
	m := s.Metrics()
	if m.Queued != 0 || m.Running != 0 || m.WaitRetry != 0 {
		t.Errorf("gauges not drained: queued=%d running=%d waitRetry=%d",
			m.Queued, m.Running, m.WaitRetry)
	}
}

// TestPairExclusiveUnderBatch checks pair exclusivity on the claim path:
// jobs sharing a pair never overlap even when they arrive in one batch
// and many workers race to claim them.
func TestPairExclusiveUnderBatch(t *testing.T) {
	b := newStubBackend()
	var mu sync.Mutex
	inFlight := map[string]int{}
	maxInFlight := map[string]int{}
	b.fail = func(seed int64, _ int) error { return nil }
	base, _ := newTestScheduler(t, Options{Workers: 8}, b)

	// Wrap the stub so each run marks its pair busy for its duration.
	pairBackend := backendFunc(func(ctx context.Context, spec Spec) (*Result, error) {
		mu.Lock()
		inFlight[spec.ServerPair]++
		if inFlight[spec.ServerPair] > maxInFlight[spec.ServerPair] {
			maxInFlight[spec.ServerPair] = inFlight[spec.ServerPair]
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight[spec.ServerPair]--
		mu.Unlock()
		return &Result{Backend: spec.Backend, Detail: "pair"}, nil
	})
	base.opts.Backends["pairstub"] = pairBackend

	specs := make([]Spec, 24)
	for i := range specs {
		specs[i] = Spec{Backend: "pairstub", Seed: int64(i),
			ServerPair: fmt.Sprintf("P%d", i%3)}
	}
	jobs, err := base.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		waitState(t, base, j.ID, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	for pair, peak := range maxInFlight {
		if peak > 1 {
			t.Errorf("pair %s ran %d jobs concurrently, want 1", pair, peak)
		}
	}
}

type backendFunc func(ctx context.Context, spec Spec) (*Result, error)

func (f backendFunc) Run(ctx context.Context, spec Spec) (*Result, error) { return f(ctx, spec) }

// TestJobsPagination10k drives the /jobs cursor end to end at the
// issue's scale: 10k jobs server-side, a capped page per request, and
// the client lister stitching them back together in order.
func TestJobsPagination10k(t *testing.T) {
	b := newStubBackend()
	s, err := NewScheduler(Options{
		Workers:    1,
		QueueLimit: 20000,
		Clock:      clock.NewManual(time.Unix(1700000000, 0)),
		Backends:   map[string]Backend{"stub": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Not started: the backlog stays queued, keeping the test about
	// listing, not execution.
	const total = 10000
	specs := make([]Spec, 1000)
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

	// One raw page honors the server cap.
	page, err := c.JobsPage(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != listLimitMax {
		t.Fatalf("first page = %d jobs, want the %d cap", len(page), listLimitMax)
	}
	// A cursor resumes where the page ended.
	next, err := c.JobsPage(ctx, page[len(page)-1].ID, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 10 || next[0].Seq != page[len(page)-1].Seq+1 {
		t.Fatalf("cursor page starts at seq %d len %d, want seq %d len 10",
			next[0].Seq, len(next), page[len(page)-1].Seq+1)
	}

	// The transparent lister reassembles the full set in order.
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

// TestBatchHTTPEndpoints round-trips the batch submit and status APIs
// through the real handler and client.
func TestBatchHTTPEndpoints(t *testing.T) {
	b := newStubBackend()
	s, _ := newTestScheduler(t, Options{Workers: 2}, b)
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	specs := []Spec{stubSpec(1), stubSpec(2), stubSpec(3)}
	jobs, err := c.SubmitBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("batch returned %d jobs, want 3", len(jobs))
	}
	for _, j := range jobs {
		waitState(t, s, j.ID, StateDone)
	}

	got, missing, err := c.StatusBatch(ctx, []string{jobs[0].ID, "j999999", jobs[2].ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != jobs[0].ID || got[1].ID != jobs[2].ID {
		t.Fatalf("status batch jobs = %+v, want the two real IDs", got)
	}
	if len(missing) != 1 || missing[0] != "j999999" {
		t.Fatalf("missing = %v, want [j999999]", missing)
	}
	for _, j := range got {
		if j.State != StateDone {
			t.Errorf("job %s = %s, want done", j.ID, j.State)
		}
	}

	// An empty batch is a 400, not a panic or an empty 201.
	if _, err := c.SubmitBatch(ctx, nil); err == nil {
		t.Error("empty batch accepted")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.BatchSubmits != 1 || m.BatchJobs != 3 {
		t.Errorf("batch counters = %d/%d, want 1/3", m.BatchSubmits, m.BatchJobs)
	}
}

// TestBatchAdmissionStatuses: over the admin plane a batch that fits the
// queue limit but finds the queue busy is a 429 — come back later — and
// one over the limit is a 413 naming both numbers, which no retry cures
// and `wehey-map plant` therefore must not answer with one.
func TestBatchAdmissionStatuses(t *testing.T) {
	b := newStubBackend()
	b.block = make(chan struct{})
	defer close(b.block)
	s, _ := newTestScheduler(t, Options{Workers: 1, QueueLimit: 4}, b)
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	specs := stubSpecs(0, 5)
	if _, err := c.SubmitBatch(ctx, specs[:2]); err != nil { // one runs at most, one stays queued
		t.Fatal(err)
	}
	if _, err := c.SubmitBatch(ctx, specs[:4]); err == nil || !contains(err.Error(), "429") {
		t.Errorf("batch of 4 into a busy queue of 4 = %v, want 429", err)
	}
	_, err := c.SubmitBatch(ctx, specs)
	if err == nil || !contains(err.Error(), "413") || !contains(err.Error(), "5 jobs, queue limit 4") {
		t.Errorf("batch of 5 into a queue of 4 = %v, want 413 with both numbers", err)
	}
	if m := s.Metrics(); m.Submitted != 2 || m.Rejected != 4 {
		t.Errorf("submitted/rejected = %d/%d, want 2/4 (the 413 is not a rejection)", m.Submitted, m.Rejected)
	}
}

// TestPostBodyBounded: a POST body is read up to maxBodyBytes and no
// further. Nine MiB of well-formed specs answer 413 for their size — not
// for their count, which nobody got to read — and the scheduler sees none
// of them; the other two POST routes hold the same line; a 500-spec batch
// is far inside it, and a malformed one is still encoding/json's 400.
func TestPostBodyBounded(t *testing.T) {
	s, _ := newTestScheduler(t, Options{Workers: 1, QueueLimit: 1000}, newStubBackend())
	h := Handler(s)
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.String()
	}

	spec := []byte(`{"backend":"stub","seed":1},`)
	big := append([]byte(`{"specs":[`), bytes.Repeat(spec, 9<<20/len(spec))...)
	big = append(big[:len(big)-1], "]}"...)
	for _, path := range []string{"/jobs:batch", "/jobs", "/jobs/status:batch"} {
		if code, body := post(path, big); code != http.StatusRequestEntityTooLarge || !contains(body, "request body too large") {
			t.Errorf("POST %s with %d bytes = %d %s, want 413 for the body's size", path, len(big), code, body)
		}
	}
	if m := s.Metrics(); m.Submitted != 0 || m.Rejected != 0 || m.BatchSubmits != 0 {
		t.Errorf("after three oversized bodies: submitted/rejected/batches = %d/%d/%d, want none", m.Submitted, m.Rejected, m.BatchSubmits)
	}

	batch, ok := appendWire(nil, &BatchRequest{Specs: stubSpecs(0, 500)})
	if !ok {
		t.Fatal("the codec declined a batch of stub specs")
	}
	if code, body := post("/jobs:batch", batch); code != http.StatusCreated {
		t.Errorf("POST /jobs:batch with 500 specs (%d bytes) = %d %s, want 201", len(batch), code, body)
	}
	// What the codec declines, the decoder the handler always used decides.
	for _, body := range []string{`{"specs":[{"seed":"x"}]}`, `{"specs":[{"seed":1}}`, `{"specs":`, ``, `[]`} {
		err := json.NewDecoder(strings.NewReader(body)).Decode(new(BatchRequest))
		if err == nil {
			t.Fatalf("encoding/json accepts %q", body)
		}
		want, _ := json.Marshal(map[string]string{"error": err.Error()})
		if code, got := post("/jobs:batch", []byte(body)); code != http.StatusBadRequest || got != string(want)+"\n" {
			t.Errorf("POST /jobs:batch %q = %d %s, want 400 %s", body, code, got, want)
		}
	}
	// As before, the first JSON value is the request, whatever follows it.
	if code, body := post("/jobs:batch", []byte(`{"specs":[{"backend":"stub","seed":1}]} x`)); code != http.StatusCreated {
		t.Errorf("POST /jobs:batch with bytes after the request = %d %s, want 201", code, body)
	}
	if m := s.Metrics(); m.Submitted != 501 {
		t.Errorf("submitted %d jobs, want 501", m.Submitted)
	}
}
