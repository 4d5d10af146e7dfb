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
)

// Options configures a Scheduler. The zero value of every field means
// "use the default".
type Options struct {
	// Workers sizes the worker pool (default 4).
	Workers int
	// QueueLimit is the admission-control bound on queued (not running)
	// jobs; submissions beyond it are rejected with ErrQueueFull
	// (default 256). A batch is admitted all-or-nothing.
	QueueLimit int
	// Shards sizes the scheduler's shard map (default 16). Jobs hash to a
	// shard by server pair (jobs without a pair hash by ID), so all state
	// for one pair — its exclusivity token and its queued jobs — lives
	// under one shard mutex, and Submit/Complete on different pairs never
	// contend.
	Shards int
	// DefaultDeadline bounds one attempt when the spec does not
	// (default 5 minutes).
	DefaultDeadline time.Duration
	// Retry shapes the backoff schedule (zero value = defaults).
	Retry RetryPolicy
	// Clock supplies all time: timestamps, queue-latency accounting,
	// deadlines, backoff timers, and the journal commit pipeline's dwell
	// (default clock.System; tests inject clock.Manual).
	Clock clock.Clock
	// JournalPath persists the campaign journal ("" = volatile: a
	// restart forgets everything).
	JournalPath string
	// JournalMaxBatch caps the records per journal group commit
	// (default 256).
	JournalMaxBatch int
	// JournalMaxDelay is how long the journal committer dwells for an
	// under-full batch to fill before fsyncing anyway (default 0: commit
	// immediately; batching emerges from fsync backpressure).
	JournalMaxDelay time.Duration
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
	if o.Shards <= 0 {
		o.Shards = 16
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
// by the owning shard's mutex except those written only before
// publication (rng, shard, and the identity fields of Job).
type job struct {
	Job

	shard      *shard     // home shard: fixed at creation by pair (or ID)
	rng        *rand.Rand // retry jitter; seeded lazily on first retry (jitterRNG)
	enqueuedAt time.Time  // last transition into the queue (latency base)
	heapIdx    int        // position in the shard's pending heap; -1 = not queued
	claiming   bool       // popped by a worker's claim scan, not yet running
	cancel     context.CancelFunc
	userCancel bool // operator asked; running attempt winds down
	retryTimer clock.Timer
	runs       int // completed executions (test observability)
}

// shard is one slice of the scheduler's hot state: the pending queue and
// the pair-exclusivity tokens for every server pair hashing here. The
// pair → shard mapping means two jobs that could ever exclude each other
// always share a shard, so exclusivity needs no cross-shard locking —
// the intra-process rehearsal of the ROADMAP's consistent-hash-by-pair
// fleet design.
type shard struct {
	mu      sync.Mutex
	pending jobHeap
	tokens  map[string]string // server pair -> job ID holding or reserving it

	_ [64]byte // pad shards apart: neighboring locks must not share a cache line
}

// Scheduler owns the campaign state machine: admission, the sharded
// priority queues, server-pair tokens, the worker pool, retries, and the
// group-commit journal.
type Scheduler struct {
	opts    Options
	clk     clock.Clock
	journal *Journal

	shards []shard
	jobs   sync.Map // job ID -> *job (read-mostly index; state under shard locks)

	queued atomic.Int64  // jobs sitting in pending heaps (admission gauge)
	rr     atomic.Uint32 // rotates the claim scan's starting shard

	// A batch takes its sequence numbers before its journal commit and
	// becomes visible after it, so batches can become visible out of
	// sequence order. seqMu guards the assignment and the batches that
	// hold numbers but are not visible yet; ListPage stays below them.
	//
	// bySeq is the listing index: the job numbered seq is in slot seq-1.
	// A slot is made (nil) with its number and filled when its batch
	// lands; it stays nil if the journal refused the batch. Numbers are
	// assigned densely, so the index has as many slots as there are jobs,
	// and a slot below the list floor is never written again.
	seqMu    sync.Mutex
	nextSeq  uint64   // last assigned submission sequence number
	inflight []uint64 // first number of each assigned, not yet visible batch
	bySeq    []*job   // len == nextSeq

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
	journalAppends                                       atomic.Int64
	journalDroppedBytes                                  atomic.Int64
	journalDupTerminals                                  atomic.Int64

	// Shard-scheduler visibility: claimScans counts full claim() sweeps
	// (one per worker wakeup that found the queue non-empty candidates),
	// claimPairSkips counts jobs passed over because their server pair's
	// token was held — the contention the pair-serialization rule costs.
	claimScans     atomic.Int64
	claimPairSkips atomic.Int64

	// Service-time moment accumulators over successful attempts
	// (started→done on the scheduler clock). They feed the M/G/c capacity
	// model behind GET /twin: count, Σs, and Σs² give the empirical mean
	// and squared coefficient of variation. Canceled and interrupted
	// attempts are excluded — their durations measure the operator, not
	// the backend.
	svcCount                   atomic.Int64
	svcTotalSec, svcTotalSqSec atomicFloat64
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
	opts = opts.fill()
	s := &Scheduler{
		opts:      opts,
		clk:       opts.Clock,
		shards:    make([]shard, opts.Shards),
		stop:      make(chan struct{}),
		closeDone: make(chan struct{}),
		// One wakeup slot per admissible job plus one per worker: sends
		// are non-blocking, and a full channel already guarantees enough
		// pending scans to find every runnable job.
		ready: make(chan struct{}, opts.QueueLimit+opts.Workers),
	}
	for i := range s.shards {
		s.shards[i].tokens = make(map[string]string)
	}
	if opts.JournalPath != "" {
		jr, rec, err := OpenJournalOptions(opts.JournalPath, JournalOptions{
			MaxBatch: opts.JournalMaxBatch,
			MaxDelay: opts.JournalMaxDelay,
			Clock:    opts.Clock,
		})
		if err != nil {
			return nil, err
		}
		s.journal = jr
		s.c.journalDroppedBytes.Store(int64(rec.DroppedBytes))
		s.replay(rec.Records)
	}
	return s, nil
}

// shardFor maps a job to its home shard: by server pair when it has one
// (all contenders for a pair must share a shard), by ID otherwise (no
// exclusivity constraint — any stable spread works).
func (s *Scheduler) shardFor(pair, id string) *shard {
	key := pair
	if key == "" {
		key = id
	}
	// Inline FNV-1a: no allocation on the submit hot path.
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return &s.shards[h%uint32(len(s.shards))]
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
	}
	for _, jj := range jobs {
		snap := jj.snapshot()
		j := s.newJob(snap.ID, snap.Seq, snap.Spec, now)
		j.Resumed = true
		j.State, j.Result, j.Error = snap.State, snap.Result, snap.Error
		s.jobs.Store(j.ID, j)
		if j.Seq > 0 { // a listing starts after 0: a job numbered 0 was never on a page
			s.bySeq[j.Seq-1] = j
		}
		if j.State.Terminal() {
			j.FinishedAt = now
			s.c.finished(j.State).Add(1)
			continue
		}
		heap.Push(&j.shard.pending, j)
		s.queued.Add(1)
		s.c.submitted.Add(1)
		s.c.resumed.Add(1)
	}
}

// newJob constructs the in-memory record for a submission.
func (s *Scheduler) newJob(id string, seq uint64, spec Spec, now time.Time) *job {
	return &job{
		Job: Job{
			ID:          id,
			Seq:         seq,
			Spec:        spec,
			State:       StateQueued,
			SubmittedAt: now,
		},
		shard:      s.shardFor(spec.ServerPair, id),
		enqueuedAt: now,
		heapIdx:    -1,
	}
}

// jitterRNG returns the job's seeded jitter generator, creating it on
// first use. Seeding a rand source is ~70% of an eager newJob's cost and
// only retrying jobs ever draw from it, so the happy path skips it
// entirely; laziness is invisible to determinism because the first draw
// still comes from the same seeded stream. Callers hold the shard lock.
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
// with ErrClosed, never acknowledged unsynced. Interrupted jobs stay
// non-terminal in the journal, so the next process resumes them.
func (s *Scheduler) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		// Another Close owns the drain; wait for it so every caller's
		// return means "fully stopped".
		<-s.closeDone
		return
	}
	close(s.stop)
	s.jobs.Range(func(_, v any) bool {
		j := v.(*job)
		sh := j.shard
		sh.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		if j.retryTimer != nil {
			j.retryTimer.Stop()
		}
		sh.mu.Unlock()
		return true
	})
	s.wg.Wait()
	if s.journal != nil {
		s.journal.Close()
	}
	close(s.closeDone)
}

// Submit admits one job, journals it durably, and queues it.
func (s *Scheduler) Submit(spec Spec) (Job, error) {
	jobs, err := s.SubmitBatch([]Spec{spec})
	if err != nil {
		return Job{}, err
	}
	return jobs[0], nil
}

// SubmitBatch admits a group of jobs as one unit: every spec is
// validated up front, queue capacity is reserved for all of them, their
// submit records ride one journal group commit (one fsync for the whole
// batch), and only then are they published to the shards. Admission is
// all-or-nothing — on any error no job of the batch was admitted.
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
	// Reserve queue slots for the whole batch atomically.
	n := int64(len(specs))
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

	s.seqMu.Lock()
	first := s.nextSeq + 1
	s.nextSeq += uint64(n)
	s.inflight = append(s.inflight, first)
	s.bySeq = append(s.bySeq, make([]*job, n)...)
	s.seqMu.Unlock()

	now := s.clk.Now()
	js := make([]*job, len(specs))
	recs := make([]record, len(specs))
	for i := range specs {
		seq := first + uint64(i)
		id := fmt.Sprintf("j%06d", seq)
		js[i] = s.newJob(id, seq, specs[i], now)
		recs[i] = record{Op: recSubmit, ID: id, Seq: seq, Spec: &specs[i]}
	}
	if s.journal != nil {
		// Durability gate: nothing is published, and nothing is
		// acknowledged to the caller, until the batch's fsync returns.
		if err := s.journal.AppendBatch(recs); err != nil {
			s.landed(first, nil) // refused: its numbers stay holes in the listing
			s.queued.Add(-n)
			if errors.Is(err, ErrJournalClosed) {
				err = ErrClosed
			}
			return nil, err
		}
		s.c.journalAppends.Add(n)
	}

	out := make([]Job, len(js))
	for i, j := range js {
		out[i] = j.Job // snapshot before publication: workers may claim immediately
		s.jobs.Store(j.ID, j)
		sh := j.shard
		sh.mu.Lock()
		heap.Push(&sh.pending, j)
		sh.mu.Unlock()
	}
	s.landed(first, js)
	s.c.submitted.Add(n)
	if len(specs) > 1 {
		s.c.batchSubmits.Add(1)
		s.c.batchJobs.Add(n)
	}
	for range js {
		s.signalReady()
	}
	return out, nil
}

// landed takes the batch whose sequence numbers start at first out of
// the in-flight set and puts its jobs — none, if the journal refused the
// batch — into the listing index, so a page sees all of a batch or none.
func (s *Scheduler) landed(first uint64, js []*job) {
	s.seqMu.Lock()
	for _, j := range js {
		s.bySeq[j.Seq-1] = j
	}
	if i := slices.Index(s.inflight, first); i >= 0 {
		s.inflight = slices.Delete(s.inflight, i, i+1)
	}
	s.seqMu.Unlock()
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
	v, ok := s.jobs.Load(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	j := v.(*job)
	sh := j.shard
	sh.mu.Lock()
	snap := j.Job
	sh.mu.Unlock()
	return snap, nil
}

// GetBatch returns snapshots for the requested IDs (in input order,
// minus unknowns) plus the list of IDs that do not exist.
func (s *Scheduler) GetBatch(ids []string) (jobs []Job, missing []string) {
	jobs = make([]Job, 0, len(ids))
	for _, id := range ids {
		j, err := s.Get(id)
		if err != nil {
			missing = append(missing, id)
			continue
		}
		jobs = append(jobs, j)
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
	s.seqMu.Lock()
	// The lowest number that may not be visible yet: every job below it
	// that will ever exist is in its slot.
	floor := s.nextSeq + 1
	if len(s.inflight) > 0 {
		floor = s.inflight[0] // ascending: appended in assignment order
	}
	// Slots below the floor are final, so they are read without the lock.
	window := s.bySeq[min(afterSeq, floor-1) : floor-1]
	s.seqMu.Unlock()

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
		sh := j.shard
		sh.mu.Lock()
		out = append(out, j.Job)
		sh.mu.Unlock()
	}
	return out
}

// Cancel ends a job: immediately when queued or waiting for a retry, by
// canceling the attempt's context when running. Canceling a terminal job
// is a no-op.
func (s *Scheduler) Cancel(id string) (Job, error) {
	v, ok := s.jobs.Load(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	j := v.(*job)
	sh := j.shard
	var rec record
	var terminal bool
	sh.mu.Lock()
	switch j.State {
	case StateQueued:
		if j.claiming {
			// A worker holds this job between its claim scan and the
			// running transition; flag it and let the worker's next
			// lock acquisition turn it into a cancel.
			j.userCancel = true
			break
		}
		if j.heapIdx >= 0 {
			heap.Remove(&sh.pending, j.heapIdx)
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
	sh.mu.Unlock()
	if terminal {
		s.journalTerminal(rec)
	}
	return snap, nil
}

// worker is one pool goroutine: wait for a wakeup, then greedily claim
// and execute runnable jobs until a full scan comes up empty.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.ready:
		}
		for !s.closed.Load() {
			j := s.claim()
			if j == nil {
				break
			}
			s.run(j)
		}
	}
}

// claim selects the globally best-priority runnable job. It scans every
// shard (rotating the start to spread contention), takes each shard's
// best runnable candidate with its pair token reserved, and keeps the
// global winner; losers go back with their reservation released. The
// reservation is what keeps pair exclusivity airtight across concurrent
// scans: a candidate's pair is held from the moment it leaves its heap.
func (s *Scheduler) claim() *job {
	s.c.claimScans.Add(1)
	n := len(s.shards)
	start := int(s.rr.Add(1)) % n
	var best *job
	for i := 0; i < n; i++ {
		c := s.takeRunnable(&s.shards[(start+i)%n])
		if c == nil {
			continue
		}
		if best == nil {
			best = c
			continue
		}
		if jobLess(c, best) {
			s.unreserve(best)
			best = c
		} else {
			s.unreserve(c)
		}
	}
	return best
}

// jobLess orders jobs like the pending heap: higher priority first,
// submission order within a priority.
func jobLess(a, b *job) bool {
	if a.Spec.Priority != b.Spec.Priority {
		return a.Spec.Priority > b.Spec.Priority
	}
	return a.Seq < b.Seq
}

// takeRunnable pops the best-priority runnable job of one shard —
// skipping over pair-blocked ones — and reserves its pair token.
func (s *Scheduler) takeRunnable(sh *shard) *job {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var skipped []*job
	var picked *job
	for sh.pending.Len() > 0 {
		j := heap.Pop(&sh.pending).(*job)
		if pair := j.Spec.ServerPair; pair != "" {
			if _, busy := sh.tokens[pair]; busy {
				s.c.claimPairSkips.Add(1)
				skipped = append(skipped, j)
				continue
			}
		}
		picked = j
		break
	}
	for _, j := range skipped {
		heap.Push(&sh.pending, j)
	}
	if picked != nil {
		if pair := picked.Spec.ServerPair; pair != "" {
			sh.tokens[pair] = picked.ID
		}
		picked.claiming = true
	}
	return picked
}

// unreserve returns a losing claim candidate to its shard's queue,
// releasing the pair reservation — unless an operator canceled it while
// it was in flight, in which case the cancel lands now.
func (s *Scheduler) unreserve(j *job) {
	sh := j.shard
	var rec record
	var canceled bool
	sh.mu.Lock()
	if pair := j.Spec.ServerPair; pair != "" {
		delete(sh.tokens, pair)
	}
	j.claiming = false
	if j.userCancel {
		s.queued.Add(-1)
		rec = s.finishLocked(j, StateCanceled, nil, "")
		canceled = true
	} else {
		heap.Push(&sh.pending, j)
	}
	sh.mu.Unlock()
	if canceled {
		s.journalTerminal(rec)
		return
	}
	s.signalReady()
}

// run finalizes a claim — state, accounting, attempt context — and
// executes one attempt.
func (s *Scheduler) run(j *job) {
	sh := j.shard
	sh.mu.Lock()
	j.claiming = false
	if j.userCancel {
		// Canceled during the claim scan: release the reservation and
		// finish without running.
		if pair := j.Spec.ServerPair; pair != "" {
			delete(sh.tokens, pair)
		}
		s.queued.Add(-1)
		rec := s.finishLocked(j, StateCanceled, nil, "")
		sh.mu.Unlock()
		s.journalTerminal(rec)
		return
	}
	j.State = StateRunning
	j.Attempts++
	j.StartedAt = s.clk.Now()
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	enqueuedAt := j.enqueuedAt
	sh.mu.Unlock()

	s.queued.Add(-1)
	s.c.latencyTotalNs.Add(int64(j.StartedAt.Sub(enqueuedAt)))
	s.c.latencyCount.Add(1)
	s.c.running.Add(1)
	backend := s.opts.Backends[j.Spec.Backend]
	deadline := j.Spec.Deadline
	if deadline <= 0 {
		deadline = s.opts.DefaultDeadline
	}
	s.execute(j, ctx, cancel, backend, deadline)
}

// execute runs one attempt under a clock-driven deadline and routes the
// outcome through complete.
func (s *Scheduler) execute(j *job, ctx context.Context, cancel context.CancelFunc, backend Backend, deadline time.Duration) {
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

	res, err := runBackend(ctx, backend, j.Spec)

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
// shutdown interruption, retry scheduling, or terminal failure. The
// shard lock covers only the state transition; the terminal journal
// append happens after it is released.
func (s *Scheduler) complete(j *job, res *Result, err error, overran bool) {
	if err == nil {
		// A result that cannot be encoded (a NaN loss rate) can be neither
		// journaled nor served: the attempt failed.
		if _, encErr := appendRecord(nil, &record{Op: recDone, ID: j.ID, Result: res}); encErr != nil {
			res, err = nil, fmt.Errorf("service: backend result cannot be recorded: %w", encErr)
		}
	}
	sh := j.shard
	var rec record
	var terminal, pairFreed bool
	sh.mu.Lock()
	if pair := j.Spec.ServerPair; pair != "" {
		delete(sh.tokens, pair)
		pairFreed = sh.pending.Len() > 0
	}
	j.cancel = nil
	j.runs++

	switch {
	case err == nil:
		sec := s.clk.Now().Sub(j.StartedAt).Seconds()
		s.c.svcCount.Add(1)
		s.c.svcTotalSec.Add(sec)
		s.c.svcTotalSqSec.Add(sec * sec)
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
	sh.mu.Unlock()

	s.c.running.Add(-1)
	if terminal {
		s.journalTerminal(rec)
	}
	if pairFreed {
		// The freed pair may unblock a same-pair sibling (same shard by
		// construction): post a wakeup.
		s.signalReady()
	}
}

// finishLocked moves a job into a terminal state and returns the journal
// record describing it. Callers hold the job's shard lock and append the
// record after releasing it.
func (s *Scheduler) finishLocked(j *job, st State, res *Result, errMsg string) record {
	j.State = st
	j.FinishedAt = s.clk.Now()
	j.RetryAt = time.Time{}
	s.c.finished(st).Add(1)
	switch st {
	case StateDone:
		return record{Op: recDone, ID: j.ID, Result: res}
	case StateFailed:
		return record{Op: recFail, ID: j.ID, Error: errMsg}
	default:
		return record{Op: recCancel, ID: j.ID}
	}
}

// journalTerminal appends a terminal record through the group-commit
// pipeline. The append is duplicate-safe (recovery keeps the first
// terminal record per job) and its failure is not fatal: the in-memory
// state is authoritative for this process, and the next process re-runs
// the job — which exactly-once semantics tolerate in the
// crash-before-append case anyway.
func (s *Scheduler) journalTerminal(rec record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err == nil {
		s.c.journalAppends.Add(1)
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
	sh := j.shard
	sh.mu.Lock()
	if s.closed.Load() || j.State != StateWaitRetry {
		sh.mu.Unlock()
		return
	}
	j.State = StateQueued
	j.RetryAt = time.Time{}
	j.retryTimer = nil
	j.enqueuedAt = s.clk.Now()
	heap.Push(&sh.pending, j)
	sh.mu.Unlock()
	s.c.waitRetry.Add(-1)
	s.queued.Add(1)
	s.signalReady()
}
