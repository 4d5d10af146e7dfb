package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/framing"
)

// Options configures a Scheduler. The zero value of every field means
// "use the default".
type Options struct {
	// Workers sizes the worker pool (default 4).
	Workers int
	// QueueLimit is the admission-control bound on queued (not running)
	// jobs; submissions beyond it are rejected with ErrQueueFull
	// (default 256). A batch is admitted all-or-nothing, and one larger
	// than the limit never: ErrBatchTooLarge.
	QueueLimit int
	// DefaultDeadline bounds one attempt when the spec does not
	// (default 5 minutes).
	DefaultDeadline time.Duration
	// Retry shapes the backoff schedule (zero value = defaults).
	Retry RetryPolicy
	// Clock supplies all time: timestamps, queue-latency accounting,
	// deadlines and backoff timers (default clock.System; tests inject
	// clock.Manual).
	Clock clock.Clock
	// JournalPath persists the campaign journal ("" = volatile: a
	// restart forgets everything).
	JournalPath string
	// Backends maps spec backend names to executors. Nil installs the
	// stock registry (sim with an in-memory cache, testbed, null).
	Backends map[string]Backend
}

func (o Options) fill() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 256
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 5 * time.Minute
	}
	o.Retry = o.Retry.fill()
	if o.Clock == nil {
		o.Clock = clock.System
	}
	if o.Backends == nil {
		o.Backends = map[string]Backend{
			BackendSim:     NewSimBackend(nil),
			BackendTestbed: &TestbedBackend{},
			BackendNull:    NullBackend{},
		}
	}
	return o
}

// job is the scheduler's mutable view of one Job. All fields are guarded
// by the scheduler's mutex except the identity fields of Job, which are
// written only before publication.
type job struct {
	Job

	rng        *rand.Rand // retry jitter; seeded lazily on first retry (jitterRNG)
	enqueuedAt time.Time  // last transition into the queue (latency base)
	heapIdx    int        // position in the pending heap; -1 = not queued
	cancel     context.CancelFunc
	userCancel bool // operator asked; running attempt winds down
	retryTimer clock.Timer
	runs       int // completed executions (test observability)

	// A job is claimable once sequenced and visible once durable.
	durable bool   // its submit is on disk: published in jobs
	held    []byte // the terminal record reached before durable; landed posts it
	refused bool   // the journal refused its batch: no further run, no record
}

// Scheduler owns the campaign state machine: admission, the priority
// queue, server-pair tokens, the worker pool, retries, and the
// group-commit journal.
type Scheduler struct {
	opts    Options
	clk     clock.Clock
	journal *Journal

	// mu guards everything down to bySeq, and every job's mutable state.
	// Journal appends and worker wakeups happen outside it.
	mu      sync.Mutex
	pending jobHeap           // queued jobs, best (priority desc, seq asc) first
	tokens  map[string]string // server pair -> ID of the running job holding it
	jobs    map[string]*job   // every published job by ID

	// A batch takes its sequence numbers before its journal commit and
	// becomes visible after it, so batches can become visible out of
	// sequence order; ListPage stays below the batches that hold numbers
	// but are not visible yet.
	//
	// bySeq is the listing index: the job numbered seq is in slot seq-1.
	// A slot is filled when its job is queued, before the batch lands,
	// and emptied if the journal refuses the batch. Numbers are
	// assigned densely, so the index has as many slots as there are jobs.
	nextSeq  uint64   // last assigned submission sequence number
	inflight []uint64 // first number of each assigned, not yet visible batch
	bySeq    []*job   // len == nextSeq

	queued atomic.Int64 // jobs in the pending heap (admission gauge)

	closed    atomic.Bool
	stop      chan struct{}
	closeDone chan struct{} // closed once the drain completes
	ready     chan struct{} // worker wakeups; capacity covers every queued job
	wg        sync.WaitGroup

	c counters
}

// counters backs Metrics. Everything is atomic so the metrics read path
// takes no locks — /metrics under load never contends with Submit.
type counters struct {
	submitted, done, failed, canceled, retried, rejected atomic.Int64
	resumed                                              atomic.Int64
	batchSubmits, batchJobs                              atomic.Int64
	running, waitRetry                                   atomic.Int64
	latencyTotalNs, latencyCount                         atomic.Int64
	journalDroppedBytes                                  atomic.Int64
	journalDupTerminals                                  atomic.Int64
	finishedBeforeDurable                                atomic.Int64

	// claimScans counts claim() calls, claimPairSkips the jobs they passed
	// over because their server pair's token was held — the contention
	// the pair-serialization rule costs.
	claimScans     atomic.Int64
	claimPairSkips atomic.Int64
}

// finished returns the counter of jobs that ended in terminal state st.
func (c *counters) finished(st State) *atomic.Int64 {
	switch st {
	case StateDone:
		return &c.done
	case StateFailed:
		return &c.failed
	default:
		return &c.canceled
	}
}

// NewScheduler builds a scheduler, replaying the journal if one is
// configured: terminal jobs come back for listing, incomplete jobs are
// re-queued to run exactly once more. Call Start to begin executing.
func NewScheduler(opts Options) (*Scheduler, error) {
	return newScheduler(opts, framing.OS{})
}

// newScheduler is NewScheduler with its journal on fsys.
func newScheduler(opts Options, fsys framing.FS) (*Scheduler, error) {
	opts = opts.fill()
	s := &Scheduler{
		opts:      opts,
		clk:       opts.Clock,
		tokens:    make(map[string]string),
		jobs:      make(map[string]*job),
		stop:      make(chan struct{}),
		closeDone: make(chan struct{}),
		// One wakeup slot per admissible job plus one per worker: sends
		// are non-blocking, and a full channel already guarantees enough
		// pending scans to find every runnable job.
		ready: make(chan struct{}, opts.QueueLimit+opts.Workers),
	}
	if opts.JournalPath != "" {
		jr, rec, err := openJournal(fsys, opts.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = jr
		s.c.journalDroppedBytes.Store(int64(rec.DroppedBytes))
		s.replay(rec.Records)
	}
	return s, nil
}

// replay rebuilds job state from journal records (no locking needed: the
// scheduler is not yet published): terminal jobs come back for listing,
// the incomplete remainder is re-queued in submission order.
func (s *Scheduler) replay(records []record) {
	now := s.clk.Now()
	jobs, dupTerminals := foldRecords(records)
	s.c.journalDupTerminals.Add(int64(dupTerminals))
	if n := len(jobs); n > 0 {
		s.nextSeq = jobs[n-1].submit.Seq // jobs are in Seq order
		s.bySeq = make([]*job, s.nextSeq)
		s.jobs = make(map[string]*job, n)
	}
	all := make([]job, len(jobs)) // one allocation for every recovered job
	for i, jj := range jobs {
		snap := jj.snapshot()
		j := newJob(&all[i], snap.ID, snap.Seq, snap.Spec, now)
		j.Resumed, j.durable = true, true
		j.State, j.Result, j.Error = snap.State, snap.Result, snap.Error
		s.jobs[j.ID] = j
		if j.Seq > 0 { // a listing starts after 0: a job numbered 0 was never on a page
			s.bySeq[j.Seq-1] = j
		}
		if j.State.Terminal() {
			j.FinishedAt = now
			s.c.finished(j.State).Add(1)
			continue
		}
		heap.Push(&s.pending, j)
		s.queued.Add(1)
		s.c.submitted.Add(1)
		s.c.resumed.Add(1)
	}
}

// newJob constructs the in-memory record for a submission in j and
// returns j.
func newJob(j *job, id string, seq uint64, spec Spec, now time.Time) *job {
	*j = job{
		Job: Job{
			ID:          id,
			Seq:         seq,
			Spec:        spec,
			State:       StateQueued,
			SubmittedAt: now,
		},
		enqueuedAt: now,
		heapIdx:    -1,
	}
	return j
}

// jitterRNG returns the job's seeded jitter generator, creating it on
// first use. Seeding a rand source is ~70% of an eager newJob's cost and
// only retrying jobs ever draw from it, so the happy path skips it
// entirely; laziness is invisible to determinism because the first draw
// still comes from the same seeded stream. Callers hold s.mu.
func (j *job) jitterRNG() *rand.Rand {
	if j.rng == nil {
		j.rng = rand.New(rand.NewSource(jobSeed(j.ID, j.Spec.Seed)))
	}
	return j.rng
}

// Start launches the worker pool and wakes it for any journal-resumed
// backlog.
func (s *Scheduler) Start() {
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	for n := s.queued.Load(); n > 0; n-- {
		s.signalReady()
	}
}

// signalReady posts one worker wakeup; dropping when the channel is full
// is safe because a full channel already holds more pending scans than
// there can be queued jobs.
func (s *Scheduler) signalReady() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Close stops admission, cancels running attempts, waits for the pool to
// drain, and closes the journal — which drains the commit pipeline, so
// every in-flight append is either fsynced-and-acknowledged or rejected
// with ErrClosed, never acknowledged unsynced, and every terminal record
// the workers posted is on disk. Interrupted jobs stay non-terminal in
// the journal, so the next process resumes them.
func (s *Scheduler) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		// Another Close owns the drain; wait for it so every caller's
		// return means "fully stopped".
		<-s.closeDone
		return
	}
	close(s.stop)
	s.mu.Lock()
	stop := func(j *job) {
		if j.cancel != nil {
			j.cancel()
		}
		if j.retryTimer != nil {
			j.retryTimer.Stop()
		}
	}
	for _, j := range s.jobs {
		stop(j)
	}
	for _, j := range s.bySeq[s.floorLocked()-1:] { // not published, maybe running
		if j != nil { // nil: a refused batch's number
			stop(j)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.journal != nil {
		s.journal.Close()
	}
	close(s.closeDone)
}

// Submit admits one job: queued at once, acknowledged once journaled.
func (s *Scheduler) Submit(spec Spec) (Job, error) {
	jobs, err := s.SubmitBatch([]Spec{spec})
	if err != nil {
		return Job{}, err
	}
	return jobs[0], nil
}

// SubmitBatch admits a group of jobs as one unit: every spec is
// validated up front, queue capacity is reserved for all of them, and
// their submit records ride one journal group commit (one fsync for the
// whole batch). The jobs are claimable from the moment they are numbered,
// so they can run while that fsync is in flight, but visible — and the
// call returns — only once it has returned. Admission is all-or-nothing:
// on any error no job of the batch was admitted.
func (s *Scheduler) SubmitBatch(specs []Spec) ([]Job, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, batchErr(i, len(specs), err)
		}
		if _, ok := s.opts.Backends[specs[i].Backend]; !ok {
			return nil, batchErr(i, len(specs), fmt.Errorf("service: unknown backend %q", specs[i].Backend))
		}
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	n := int64(len(specs))
	if n > int64(s.opts.QueueLimit) {
		return nil, fmt.Errorf("%w: %d jobs, queue limit %d", ErrBatchTooLarge, n, s.opts.QueueLimit)
	}
	// Reserve queue slots for the whole batch atomically.
	for {
		cur := s.queued.Load()
		if cur+n > int64(s.opts.QueueLimit) {
			s.c.rejected.Add(n)
			return nil, ErrQueueFull
		}
		if s.queued.CompareAndSwap(cur, cur+n) {
			break
		}
	}

	s.mu.Lock()
	first := s.nextSeq + 1
	s.nextSeq += uint64(n)
	s.inflight = append(s.inflight, first)
	s.bySeq = append(s.bySeq, make([]*job, n)...)
	s.mu.Unlock()

	now := s.clk.Now()
	js := make([]*job, len(specs))
	recs := make([]record, len(specs))
	for i := range specs {
		seq := first + uint64(i)
		id := fmt.Sprintf("j%06d", seq)
		js[i] = newJob(new(job), id, seq, specs[i], now)
		recs[i] = record{Op: recSubmit, ID: id, Seq: seq, Spec: &specs[i]}
	}
	var frames []byte
	var err error
	if s.journal != nil { // encoded first: a spec the journal cannot hold never runs
		frames, err = frameRecords(make([]byte, 0, len(recs)*(framing.HeaderSize+256)), recs)
	}
	if err == nil {
		s.mu.Lock()
		for _, j := range js {
			heap.Push(&s.pending, j)
			s.bySeq[j.Seq-1] = j // above the listing floor until landed
		}
		s.mu.Unlock()
		for range js {
			s.signalReady()
		}
		if s.journal != nil {
			err = s.journal.enqueue(frames, len(recs), true)
		}
	}
	if err != nil {
		s.landed(first, js, err)
		if errors.Is(err, ErrJournalClosed) {
			err = ErrClosed
		}
		return nil, err
	}
	s.c.submitted.Add(n)
	if len(specs) > 1 {
		s.c.batchSubmits.Add(1)
		s.c.batchJobs.Add(n)
	}
	return s.landed(first, js, nil), nil
}

// landed takes the batch whose sequence numbers start at first out of
// the in-flight set once its journal commit returned. A durable batch is
// published to the ID index — a page sees all of it or none — and its
// snapshots, the caller's answer, returned; the terminal records its jobs
// reached meanwhile are posted as one enqueue, their FinishedAt moved up
// to now, when the verdict became readable. A refused batch is withdrawn.
func (s *Scheduler) landed(first uint64, js []*job, err error) []Job {
	var out []Job
	var held []byte
	nheld := 0
	s.mu.Lock()
	now := s.clk.Now()
	for _, j := range js {
		if err != nil {
			s.withdrawLocked(j)
			continue
		}
		j.durable = true
		s.jobs[j.ID] = j
		if j.held != nil {
			j.FinishedAt = now
			s.c.finished(j.State).Add(1)
			held, j.held, nheld = append(held, j.held...), nil, nheld+1
		}
		out = append(out, j.Job)
	}
	if i := slices.Index(s.inflight, first); i >= 0 {
		s.inflight = slices.Delete(s.inflight, i, i+1)
	}
	s.mu.Unlock()
	if nheld > 0 && s.journal != nil {
		s.journal.post(held, nheld) // not fatal either, for complete's reasons
	}
	s.c.finishedBeforeDurable.Add(int64(nheld))
	return out
}

// withdrawLocked takes a job of a refused batch back: out of the queue,
// returning its reservation, or its attempt canceled (complete drops the
// outcome), or its retry stopped; a held record is dropped and its number
// stays a hole in the listing. Callers hold s.mu.
func (s *Scheduler) withdrawLocked(j *job) {
	j.refused, j.held = true, nil
	s.bySeq[j.Seq-1] = nil
	switch {
	case j.heapIdx >= 0:
		heap.Remove(&s.pending, j.heapIdx)
		s.queued.Add(-1)
	case j.Attempts == 0: // never queued: its batch could not be encoded
		s.queued.Add(-1)
	case j.cancel != nil:
		j.cancel()
	case j.State == StateWaitRetry:
		j.retryTimer.Stop()
		s.c.waitRetry.Add(-1)
	}
}

// batchErr labels a per-spec error with its batch index (single-spec
// submissions keep the bare error).
func batchErr(i, n int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("service: batch spec %d: %w", i, err)
}

// Get returns a snapshot of one job.
func (s *Scheduler) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return j.Job, nil
}

// GetBatch returns snapshots for the requested IDs (in input order,
// minus unknowns) plus the list of IDs that do not exist.
func (s *Scheduler) GetBatch(ids []string) (jobs []Job, missing []string) {
	jobs = make([]Job, 0, len(ids))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j.Job)
		} else {
			missing = append(missing, id)
		}
	}
	return jobs, missing
}

// List returns snapshots of every known job in submission order. For
// large campaigns prefer ListPage, which the admin plane serves with a
// cursor instead of buffering the full set.
func (s *Scheduler) List() []Job {
	return s.ListPage(0, 0)
}

// ListPage returns up to limit jobs with Seq > afterSeq, in submission
// order (limit <= 0 = no cap). The (afterSeq, limit) pair implements the
// admin plane's `/jobs?after=` cursor. A page never reaches a sequence
// number that is assigned but not visible yet (a concurrent submission
// waiting on its journal commit) nor goes past one: a cursor taken from
// it therefore never skips a job that appears later, and the jobs held
// back arrive with a later page. A page costs what it returns, not what
// the scheduler holds: it is a walk along the sequence index.
func (s *Scheduler) ListPage(afterSeq uint64, limit int) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	floor := s.floorLocked()
	window := s.bySeq[min(afterSeq, floor-1) : floor-1]
	if limit <= 0 || limit > len(window) {
		limit = len(window)
	}
	out := make([]Job, 0, limit)
	for _, j := range window {
		if j == nil { // the journal refused this number's batch
			continue
		}
		if len(out) == limit {
			break
		}
		out = append(out, j.Job)
	}
	return out
}

// floorLocked is the lowest number that may not be visible yet: every job
// below it that will ever exist is published in its slot. Callers hold
// s.mu.
func (s *Scheduler) floorLocked() uint64 {
	if len(s.inflight) > 0 {
		return s.inflight[0] // ascending: appended in assignment order
	}
	return s.nextSeq + 1
}

// Cancel ends a job: immediately when queued or waiting for a retry, by
// canceling the attempt's context when running. Canceling a terminal job
// is a no-op.
func (s *Scheduler) Cancel(id string) (Job, error) {
	var rec record
	var terminal bool
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, ErrNotFound
	}
	switch j.State {
	case StateQueued:
		if j.heapIdx >= 0 { // -1: an attempt Close interrupted, left for the next process
			heap.Remove(&s.pending, j.heapIdx)
			s.queued.Add(-1)
		}
		rec = s.finishLocked(j, StateCanceled, nil, "")
		terminal = true
	case StateWaitRetry:
		if j.retryTimer != nil {
			j.retryTimer.Stop()
			j.retryTimer = nil
		}
		s.c.waitRetry.Add(-1)
		rec = s.finishLocked(j, StateCanceled, nil, "")
		terminal = true
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	snap := j.Job
	s.mu.Unlock()
	if terminal && s.journal != nil {
		// An operator's cancel is acknowledged after its fsync, like a
		// submit. A failure is not fatal, for the reasons complete gives
		// for a posted terminal record.
		s.journal.Append(rec)
	}
	return snap, nil
}

// worker is one pool goroutine: wait for a wakeup, then greedily claim
// and execute runnable jobs until a claim comes up empty.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.ready:
		}
		for !s.closed.Load() {
			j, ctx, cancel := s.claim()
			if j == nil {
				break
			}
			s.execute(j, ctx, cancel)
		}
	}
}

// claim takes the best (priority desc, seq asc) queued job whose server
// pair is free and starts its attempt: pair token, running state and
// attempt context are all set in the one critical section, so a job is
// never anywhere between queued and running and two jobs never hold one
// pair. It returns nil when nothing queued can run.
func (s *Scheduler) claim() (*job, context.Context, context.CancelFunc) {
	s.c.claimScans.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	var j *job
	var blocked []*job
	for s.pending.Len() > 0 {
		c := heap.Pop(&s.pending).(*job)
		if _, busy := s.tokens[c.Spec.ServerPair]; !busy { // "" never holds a token
			j = c
			break
		}
		blocked = append(blocked, c)
	}
	for _, b := range blocked {
		heap.Push(&s.pending, b)
	}
	s.c.claimPairSkips.Add(int64(len(blocked)))
	if j == nil {
		return nil, nil, nil
	}
	if pair := j.Spec.ServerPair; pair != "" {
		s.tokens[pair] = j.ID
	}
	j.State = StateRunning
	j.Attempts++
	j.StartedAt = s.clk.Now()
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	s.queued.Add(-1)
	s.c.latencyTotalNs.Add(int64(j.StartedAt.Sub(j.enqueuedAt)))
	s.c.latencyCount.Add(1)
	s.c.running.Add(1)
	return j, ctx, cancel
}

// execute runs one claimed attempt under a clock-driven deadline and
// routes the outcome through complete.
func (s *Scheduler) execute(j *job, ctx context.Context, cancel context.CancelFunc) {
	deadline := j.Spec.Deadline
	if deadline <= 0 {
		deadline = s.opts.DefaultDeadline
	}
	timer := s.clk.NewTimer(deadline)
	watchDone := make(chan struct{})
	timedOut := make(chan struct{}, 1)
	go func() {
		select {
		case <-timer.C():
			timedOut <- struct{}{}
			cancel()
		case <-watchDone:
		}
	}()

	res, err := runBackend(ctx, s.opts.Backends[j.Spec.Backend], j.Spec)

	timer.Stop()
	close(watchDone)
	cancel()
	overran := false
	select {
	case <-timedOut:
		overran = true
	default:
	}
	s.complete(j, res, err, overran)
}

// runBackend isolates a backend panic into an error so one bad job cannot
// take the worker (and its queued siblings) down.
func runBackend(ctx context.Context, b Backend, spec Spec) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("service: backend panic: %v", r)
		}
	}()
	return b.Run(ctx, spec)
}

// complete applies one attempt's outcome: success, operator cancel,
// shutdown interruption, retry scheduling, or terminal failure. The lock
// covers only the state transition; the terminal record is posted to the
// journal after it is released.
func (s *Scheduler) complete(j *job, res *Result, err error, overran bool) {
	var frame []byte // the done record as the journal will hold it
	if err == nil {
		// A result that cannot be encoded (a NaN loss rate) can be neither
		// journaled nor served: the attempt failed.
		var encErr error
		if frame, encErr = frameRecords(nil, []record{{Op: recDone, ID: j.ID, Result: res}}); encErr != nil {
			res, err = nil, fmt.Errorf("service: backend result cannot be recorded: %w", encErr)
		}
	}
	var rec record
	var terminal, pairFreed bool
	s.mu.Lock()
	if pair := j.Spec.ServerPair; pair != "" {
		delete(s.tokens, pair)
		pairFreed = s.pending.Len() > 0
	}
	j.cancel = nil
	j.runs++

	switch {
	case j.refused:
		// The journal refused the job's batch: the outcome is nobody's.
	case err == nil:
		j.Result = res
		rec = s.finishLocked(j, StateDone, res, "")
		terminal = true
	case j.userCancel:
		rec = s.finishLocked(j, StateCanceled, nil, "")
		terminal = true
	case s.closed.Load():
		// Shutdown interrupted the attempt: leave the job non-terminal so
		// the journal resumes it in the next process.
		j.State = StateQueued
	default:
		if overran {
			err = fmt.Errorf("%w (%v)", ErrDeadline, err)
		}
		j.Error = err.Error()
		maxAttempts := j.Spec.MaxAttempts
		if maxAttempts <= 0 {
			maxAttempts = s.opts.Retry.MaxAttempts
		}
		if j.Attempts >= maxAttempts {
			rec = s.finishLocked(j, StateFailed, nil, j.Error)
			terminal = true
			break
		}
		// Schedule the retry: capped exponential backoff, jitter from the
		// job's seeded generator.
		d := s.opts.Retry.delay(j.Attempts, j.jitterRNG())
		j.State = StateWaitRetry
		j.RetryAt = s.clk.Now().Add(d)
		s.c.retried.Add(1)
		s.c.waitRetry.Add(1)
		t := s.clk.NewTimer(d)
		j.retryTimer = t
		s.wg.Add(1)
		go s.awaitRetry(j, t)
	}
	if terminal && frame == nil {
		frame, _ = frameRecords(nil, []record{rec}) // a fail or cancel record always encodes
	}
	if terminal && !j.durable {
		j.held, terminal = frame, false // landed posts it once the submit is on disk
	}
	s.mu.Unlock()

	s.c.running.Add(-1)
	if terminal && s.journal != nil {
		// Posted, not appended: the worker claims its next job and the
		// commit carries every record posted meanwhile. The state is
		// already visible, nobody reads this acknowledgement, and the
		// record is duplicate-safe (recovery keeps the first terminal
		// record per job), so a refusal is not fatal either: the in-memory
		// state is authoritative for this process, and the next process
		// re-runs the job — which exactly-once semantics tolerate in the
		// crash-before-append case anyway.
		s.journal.post(frame, 1)
	}
	if pairFreed {
		// The freed pair makes at most one queued job newly claimable, and
		// this worker's claim loop, which runs next, takes the best
		// claimable job: that one, or a better one that was claimable
		// already — and a job claimable while this worker ran either had
		// no idle worker to take it or still has its enqueue's wakeup
		// pending. So the greedy loop covers the freed pair for
		// correctness (TestSchedulerMatchesModel passes with the wakeup
		// deleted), but the wakeup pays for speed: an idle worker can
		// start the freed pair's job while this one is still returning.
		// Without it the bench workload serve_arrivals lost ops_per_s in
		// 5 of 5 parent/change pairs on 2 vCPUs (median 5 417 -> 4 862/s).
		s.signalReady()
	}
}

// finishLocked moves a job into a terminal state and returns the journal
// record describing it. Callers hold s.mu and append the record after
// releasing it. A job not durable yet is counted when landed publishes it.
func (s *Scheduler) finishLocked(j *job, st State, res *Result, errMsg string) record {
	j.State = st
	j.FinishedAt = s.clk.Now()
	j.RetryAt = time.Time{}
	if j.durable {
		s.c.finished(st).Add(1)
	}
	switch st {
	case StateDone:
		return record{Op: recDone, ID: j.ID, Result: res}
	case StateFailed:
		return record{Op: recFail, ID: j.ID, Error: errMsg}
	default:
		return record{Op: recCancel, ID: j.ID}
	}
}

// awaitRetry re-queues a job when its backoff timer fires (or gives up on
// shutdown/cancel).
func (s *Scheduler) awaitRetry(j *job, t clock.Timer) {
	defer s.wg.Done()
	select {
	case <-t.C():
	case <-s.stop:
		return
	}
	s.mu.Lock()
	if s.closed.Load() || j.refused || j.State != StateWaitRetry {
		s.mu.Unlock()
		return
	}
	j.State = StateQueued
	j.RetryAt = time.Time{}
	j.retryTimer = nil
	j.enqueuedAt = s.clk.Now()
	heap.Push(&s.pending, j)
	s.mu.Unlock()
	s.c.waitRetry.Add(-1)
	s.queued.Add(1)
	s.signalReady()
}
