package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
)

// The model-based scheduler test drives a real Scheduler on a manual clock
// in lockstep with refSched, a plain-code reference of the scheduling
// contract, and compares every job's state, attempt count and timestamps
// with the reference at every instant of a script.

// modelT0 is the manual clock's start; every scripted instant is after it,
// so a zero offset in a modelView means "not set".
var modelT0 = time.Unix(1700000000, 0)

const (
	modelFailBits = 4               // Spec.Seed's low bits: how many leading attempts fail
	modelWait     = 3 * time.Second // real-time bound on one instant's lockstep wait
)

// modelSeed encodes a job's script in its Spec.Seed: every attempt takes
// svc of clock time, and the first fails attempts fail.
func modelSeed(svc time.Duration, fails int) int64 {
	return int64(svc)<<modelFailBits | int64(fails)
}

// modelBackend runs the scripts modelSeed encodes. An attempt is a pure
// wait on the manual clock; armed counts the waits registered with it,
// which tells the driver that a started attempt's finish instant is fixed
// and the clock may move. It also records any server pair that two
// attempts held at once.
type modelBackend struct {
	clk   *clock.Manual
	armed atomic.Int64

	mu    sync.Mutex
	runs  map[int64]int   // attempts begun, by seed (one job each)
	held  map[string]bool // pairs with an attempt inside Run
	clash []string
}

func (b *modelBackend) Run(ctx context.Context, spec Spec) (*Result, error) {
	pair := spec.ServerPair
	b.mu.Lock()
	b.runs[spec.Seed]++
	attempt := b.runs[spec.Seed]
	if pair != "" {
		if b.held[pair] {
			b.clash = append(b.clash, pair)
		}
		b.held[pair] = true
	}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.held, pair)
		b.mu.Unlock()
	}()

	timer := b.clk.NewTimer(time.Duration(spec.Seed >> modelFailBits))
	b.armed.Add(1)
	select {
	case <-timer.C():
	case <-ctx.Done():
		timer.Stop()
		return nil, ctx.Err()
	}
	if attempt <= int(spec.Seed&(1<<modelFailBits-1)) {
		return nil, errors.New("model: scripted failure")
	}
	return &Result{Backend: spec.Backend, Detail: "model"}, nil
}

// refJob is the reference's copy of one job: the Job fields the scheduler
// must report, and the script its backend follows.
type refJob struct {
	Job
	svc   time.Duration
	fails int       // leading attempts that fail
	max   int       // attempts allowed
	end   time.Time // the running attempt's finish
}

// refSched is the reference scheduler: a queue ordered by (priority desc,
// seq asc), workers and pair tokens, and a fixed backoff schedule.
type refSched struct {
	workers, running int
	retry            RetryPolicy // filled, with no jitter
	jobs             []*refJob   // in seq order
	held             map[string]bool
	starts           int64
	cancels          map[State]int // cancels that took effect, by the state they interrupted
}

func (m *refSched) submit(id string, spec Spec, now time.Time) *refJob {
	j := &refJob{
		Job:   Job{ID: id, Spec: spec, State: StateQueued, SubmittedAt: now},
		svc:   time.Duration(spec.Seed >> modelFailBits),
		fails: int(spec.Seed & (1<<modelFailBits - 1)),
		max:   spec.MaxAttempts,
	}
	if j.max == 0 {
		j.max = m.retry.MaxAttempts
	}
	m.jobs = append(m.jobs, j)
	return j
}

// live returns the non-terminal jobs in seq order.
func (m *refSched) live() []*refJob {
	var out []*refJob
	for _, j := range m.jobs {
		if !j.State.Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// next returns the earliest pending clock event — an attempt's finish or a
// retry coming due — and how many events share that instant (0: none).
func (m *refSched) next() (at time.Time, n int) {
	for _, j := range m.jobs {
		var t time.Time
		switch j.State {
		case StateRunning:
			t = j.end
		case StateWaitRetry:
			t = j.RetryAt
		default:
			continue
		}
		switch {
		case n == 0 || t.Before(at):
			at, n = t, 1
		case t.Equal(at):
			n++
		}
	}
	return at, n
}

// fire applies the clock events due at now: finishes and retry requeues.
func (m *refSched) fire(now time.Time) {
	for _, j := range m.jobs {
		switch {
		case j.State == StateRunning && j.end.Equal(now):
			m.release(j)
			switch {
			case j.Attempts > j.fails:
				j.State, j.FinishedAt = StateDone, now
			case j.Attempts >= j.max:
				j.State, j.FinishedAt = StateFailed, now
			default:
				d := m.retry.BaseDelay << (j.Attempts - 1)
				j.State, j.RetryAt = StateWaitRetry, now.Add(min(d, m.retry.MaxDelay))
			}
		case j.State == StateWaitRetry && j.RetryAt.Equal(now):
			j.State, j.RetryAt = StateQueued, time.Time{}
		}
	}
}

func (m *refSched) cancel(j *refJob, now time.Time) {
	switch j.State {
	case StateRunning:
		m.release(j)
	case StateQueued, StateWaitRetry:
	default:
		return
	}
	m.cancels[j.State]++
	j.State, j.FinishedAt, j.RetryAt = StateCanceled, now, time.Time{}
}

func (m *refSched) release(j *refJob) {
	m.running--
	delete(m.held, j.Spec.ServerPair)
}

// start puts the best queued job whose pair is free on each idle worker.
func (m *refSched) start(now time.Time) {
	for m.running < m.workers {
		var best *refJob
		for _, j := range m.jobs { // seq order: strict > keeps the oldest of a priority
			if j.State == StateQueued && !m.held[j.Spec.ServerPair] &&
				(best == nil || j.Spec.Priority > best.Spec.Priority) {
				best = j
			}
		}
		if best == nil {
			return
		}
		best.State, best.StartedAt, best.end = StateRunning, now, now.Add(best.svc)
		best.Attempts++
		m.running++
		m.starts++
		if p := best.Spec.ServerPair; p != "" {
			m.held[p] = true
		}
	}
}

// modelAct is one driver action, gap after the previous one: submit specs
// (one Submit, or one SubmitBatch for several), or, with no specs, cancel
// the pick-th live job of the reference (modulo their count).
type modelAct struct {
	gap   time.Duration
	specs []Spec
	pick  int
}

// modelView is what the test compares: a job's state, attempts and
// timestamps as offsets from modelT0 (0 = not set).
type modelView struct {
	State                                 State
	Attempts                              int
	Submitted, Started, Finished, RetryAt time.Duration
}

func viewOf(j Job) modelView {
	off := func(t time.Time) time.Duration {
		if t.IsZero() {
			return 0
		}
		return t.Sub(modelT0)
	}
	return modelView{j.State, j.Attempts, off(j.SubmittedAt), off(j.StartedAt), off(j.FinishedAt), off(j.RetryAt)}
}

// runModel plays script against a fresh scheduler of the given pool size
// (journaled at journal when it is not "") and against the reference,
// instant by instant: advance the clock to the next action or clock event,
// apply it to both, then wait until the scheduler agrees with the
// reference. Actions never share an instant with a clock event, and the
// script must not make two clock events coincide, so each instant has a
// single order-free outcome.
func runModel(t *testing.T, workers int, journal string, script []modelAct) *refSched {
	t.Helper()
	retry := RetryPolicy{MaxAttempts: 3, BaseDelay: 150 * time.Millisecond, MaxDelay: 400 * time.Millisecond, JitterFrac: -1}
	clk := clock.NewManual(modelT0)
	b := &modelBackend{clk: clk, runs: map[int64]int{}, held: map[string]bool{}}
	seeds := map[int64]bool{}
	njobs := 0
	for _, a := range script {
		for _, sp := range a.specs {
			seeds[sp.Seed] = true
		}
		njobs += len(a.specs)
	}
	if len(seeds) != njobs {
		t.Fatalf("script error: %d jobs share %d seeds", njobs, len(seeds))
	}
	s, err := NewScheduler(Options{
		Workers:         workers,
		QueueLimit:      njobs,
		DefaultDeadline: 1 << 56, // years of clock time: never reached
		Retry:           retry,
		Clock:           clk,
		JournalPath:     journal,
		Backends:        map[string]Backend{"model": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()
	ref := &refSched{workers: workers, retry: retry.fill(), held: map[string]bool{}, cancels: map[State]int{}}

	now, actAt := modelT0, modelT0
	if len(script) > 0 {
		actAt = now.Add(script[0].gap)
	}
	for {
		tick, n := ref.next()
		if n > 1 {
			t.Fatalf("script error: %d clock events coincide at +%v", n, tick.Sub(modelT0))
		}
		if len(script) == 0 && n == 0 {
			break
		}
		watch := ref.live() // every job this instant can change
		if len(script) > 0 && actAt.Equal(tick) {
			actAt = actAt.Add(1)
		}
		if len(script) > 0 && (n == 0 || actAt.Before(tick)) {
			clk.Advance(actAt.Sub(now))
			now = actAt
			a := script[0]
			script = script[1:]
			switch {
			case len(a.specs) == 1:
				j, err := s.Submit(a.specs[0])
				if err != nil {
					t.Fatalf("+%v: submit: %v", now.Sub(modelT0), err)
				}
				watch = append(watch, ref.submit(j.ID, a.specs[0], now))
			case len(a.specs) > 1:
				jobs, err := s.SubmitBatch(a.specs)
				if err != nil {
					t.Fatalf("+%v: submit batch: %v", now.Sub(modelT0), err)
				}
				for i, j := range jobs {
					watch = append(watch, ref.submit(j.ID, a.specs[i], now))
				}
			case len(watch) > 0:
				j := watch[a.pick%len(watch)]
				if _, err := s.Cancel(j.ID); err != nil {
					t.Fatalf("+%v: cancel %s: %v", now.Sub(modelT0), j.ID, err)
				}
				ref.cancel(j, now)
			}
			if len(script) > 0 {
				actAt = now.Add(script[0].gap)
			}
		} else {
			clk.Advance(tick.Sub(now))
			now = tick
			ref.fire(now)
		}
		ref.start(now)
		waitModel(t, s, b, ref, watch, now)
	}

	// The end state: every job terminal exactly once, in agreement with
	// the reference, having run exactly the attempts it reports.
	waitModel(t, s, b, ref, ref.jobs, now)
	want := map[State]int64{}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, j := range ref.jobs {
		want[j.State]++
		if runs := b.runs[j.Spec.Seed]; runs != j.Attempts {
			t.Errorf("job %s: backend ran %d attempts, scheduler reports %d", j.ID, runs, j.Attempts)
		}
	}
	m := s.Metrics()
	if m.Done != want[StateDone] || m.Failed != want[StateFailed] || m.Canceled != want[StateCanceled] {
		t.Errorf("terminal counters done/failed/canceled = %d/%d/%d, want %d/%d/%d",
			m.Done, m.Failed, m.Canceled, want[StateDone], want[StateFailed], want[StateCanceled])
	}
	if len(b.clash) > 0 {
		t.Errorf("two attempts held one pair at once: %v", b.clash)
	}
	if journal != "" {
		s.Close() // drains the posted terminal records
		jr, rec, err := OpenJournal(journal)
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
		for _, j := range ref.jobs {
			if terminals[j.ID] != 1 {
				t.Errorf("job %s has %d terminal journal records, want 1", j.ID, terminals[j.ID])
			}
		}
	}
	return ref
}

// waitModel waits until the scheduler has armed as many attempts as the
// reference started and every watched job matches the reference. It fails
// the test, naming the instant and each divergent job, when the scheduler
// armed more attempts than the reference started or modelWait of real time
// runs out.
func waitModel(t *testing.T, s *Scheduler, b *modelBackend, ref *refSched, watch []*refJob, now time.Time) {
	t.Helper()
	ids := make([]string, len(watch))
	for i, j := range watch {
		ids[i] = j.ID
	}
	deadline := time.Now().Add(modelWait)
	for spin := 0; ; spin++ {
		armed := b.armed.Load()
		var diffs []string
		got, missing := s.GetBatch(ids)
		for _, id := range missing {
			diffs = append(diffs, fmt.Sprintf("job %s: unknown to the scheduler", id))
		}
		for i := 0; len(missing) == 0 && i < len(got); i++ {
			if g, w := viewOf(got[i]), viewOf(watch[i].Job); g != w {
				diffs = append(diffs, fmt.Sprintf("job %s (priority %d, pair %q):\n\t scheduler %+v\n\t reference %+v",
					got[i].ID, got[i].Spec.Priority, got[i].Spec.ServerPair, g, w))
			}
		}
		if armed == ref.starts && len(diffs) == 0 {
			return
		}
		if armed > ref.starts || time.Now().After(deadline) {
			if len(diffs) > 4 {
				diffs = append(diffs[:4], fmt.Sprintf("... and %d more", len(diffs)-4))
			}
			t.Fatalf("at +%v: scheduler armed %d attempts, reference started %d\n%s",
				now.Sub(modelT0), armed, ref.starts, strings.Join(diffs, "\n"))
		}
		// A short Gosched burst catches same-instant handoffs; after that,
		// sleep, so the goroutines being waited on get the CPU.
		if spin < 32 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// randomScript draws a seeded script of about njobs jobs: single and batch
// submits over three priorities and three pairs (or none), with one
// action in five a cancel; attempt times up to 1 s, one job in ten failing
// once, one in ten twice and one in twenty more often than any job may
// retry. Gaps mostly keep the pool overloaded, with occasional lulls that
// let it drain.
func randomScript(seed int64, workers, njobs int) []modelAct {
	rng := rand.New(rand.NewSource(seed))
	pairs := []string{"", "", "A", "B", "C"}
	var script []modelAct
	for n := 0; n < njobs; {
		gap := 1 + time.Duration(rng.Int63n(int64(500*time.Millisecond)/int64(workers)))
		if rng.Intn(8) == 0 {
			gap += time.Duration(rng.Int63n(int64(3 * time.Second)))
		}
		if rng.Intn(5) == 0 {
			script = append(script, modelAct{gap: gap, pick: rng.Int()})
			continue
		}
		specs := make([]Spec, 1+rng.Intn(3)*rng.Intn(2))
		for i := range specs {
			fails := []int{0, 0, 0, 0, 0, 0, 0, 1, 2, 15}[rng.Intn(10)]
			svc := 1 + time.Duration(rng.Int63n(int64(time.Second)))
			specs[i] = Spec{
				Backend:     "model",
				Priority:    rng.Intn(3),
				ServerPair:  pairs[rng.Intn(len(pairs))],
				Seed:        modelSeed(svc, fails),
				MaxAttempts: []int{0, 0, 2, 4}[rng.Intn(4)],
			}
		}
		script = append(script, modelAct{gap: gap, specs: specs})
		n += len(specs)
	}
	return script
}

// TestSchedulerMatchesModel runs seeded random scripts — submits, batch
// submits, cancels of queued, running and retry-waiting jobs, failures and
// retries — at c = 1, 2 and 4, and once with a journal, which must end
// with exactly one terminal record per job.
func TestSchedulerMatchesModel(t *testing.T) {
	cancels := map[State]int{}
	outcomes := map[State]int{}
	tally := func(ref *refSched) {
		for st, n := range ref.cancels {
			cancels[st] += n
		}
		for _, j := range ref.jobs {
			outcomes[j.State]++
		}
	}
	// A scheduler that diverges on one script is not run on the rest: each
	// failing script costs a full modelWait.
	for _, c := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			if !t.Run(fmt.Sprintf("c%d/seed%d", c, seed), func(t *testing.T) {
				tally(runModel(t, c, "", randomScript(10*seed+int64(c), c, 120)))
			}) {
				return
			}
		}
	}
	if !t.Run("journaled", func(t *testing.T) {
		tally(runModel(t, 2, filepath.Join(t.TempDir(), "journal.wj"), randomScript(99, 2, 60)))
	}) {
		return
	}
	// The scripts must reach every transition they claim to cover.
	for _, st := range []State{StateQueued, StateRunning, StateWaitRetry} {
		if cancels[st] == 0 {
			t.Errorf("no script canceled a %s job", st)
		}
	}
	for _, st := range []State{StateDone, StateFailed, StateCanceled} {
		if outcomes[st] == 0 {
			t.Errorf("no job ended %s", st)
		}
	}
}

// TestSchedulerFIFOServerTiming is the fixed M/M/c case: Poisson arrivals
// at 2 jobs/s, exponential attempt times of mean 0.4 s, no pairs, one
// priority, 500 jobs at c = 1 and 3. Every start and finish must land on
// the FIFO c-server schedule to the nanosecond.
func TestSchedulerFIFOServerTiming(t *testing.T) {
	for _, c := range []int{1, 3} {
		if !t.Run(fmt.Sprintf("c%d", c), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			script := make([]modelAct, 500)
			for i := range script {
				gap := time.Duration(rng.ExpFloat64() / 2 * float64(time.Second))
				svc := time.Duration(rng.ExpFloat64() * 0.4 * float64(time.Second))
				script[i] = modelAct{gap: max(gap, 1), specs: []Spec{{Backend: "model", Seed: modelSeed(max(svc, 1), 0)}}}
			}
			ref := runModel(t, c, "", script)
			if ref.starts != 500 {
				t.Errorf("%d attempts started, want 500", ref.starts)
			}
		}) {
			return
		}
	}
}
