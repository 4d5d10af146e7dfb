package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/fleet"
	"github.com/nal-epfl/wehey/internal/service"
)

// server is an in-process wehey-serve: a scheduler behind service.Handler
// on a real loopback listener, with a client whose connections are capped
// at nproc.
type server struct {
	sched   *service.Scheduler
	srv     *http.Server
	served  chan struct{}
	client  *service.Client
	journal string
}

func startServer(opts service.Options, nproc int) (*server, error) {
	sched, err := service.NewScheduler(opts)
	if err != nil {
		return nil, err
	}
	sched.Start()
	s := &server{sched: sched, journal: opts.JournalPath}
	if err := s.listen(nproc); err != nil {
		sched.Close()
		return nil, err
	}
	return s, nil
}

// listen opens the loopback listener and the capped client.
func (s *server) listen(nproc int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: service.Handler(s.sched)}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns http.ErrServerClosed on stop; nothing to do with it
	}()
	s.client = &service.Client{
		BaseURL: "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
		}},
	}
	return nil
}

// stop shuts the listener and the scheduler down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) // best effort: Close below is what preserves state
	<-s.served
	s.client.HTTPClient.CloseIdleConnections()
	s.sched.Close()
}

// serveSetup is serve_arrivals' state.
type serveSetup struct {
	srv      *server
	camp     fleet.Campaign
	plan     []experiments.FleetSession
	specs    []service.Spec
	expected map[experiments.SimSpec]experiments.SimVerdict
	cache    *experiments.SimCache
	backend  *tracedSimBackend // traced runs only
	next     atomic.Int64      // next unsent session
	dir      string
}

// tracedSimBackend is the traced run's "sim" backend: the steps
// service.SimBackend.Run performs — Config.Sim, then the detector seeded
// with experiments.DetectSeed — called from here so each gets a span.
// While `on` is false it delegates to the real backend (the untraced half
// of the closed phase). Every result is checked against
// Config.Verdict like the real backend's.
type tracedSimBackend struct {
	real  *service.SimBackend
	cache *experiments.SimCache
	tr    *tracer
	on    atomic.Bool
	ids   sync.Map // fleet session -> sessionSpans
}

// sessionSpans are the spans opened for a session before it is submitted.
type sessionSpans struct{ root, run int }

func (b *tracedSimBackend) Run(ctx context.Context, spec service.Spec) (*service.Result, error) {
	v, ok := b.ids.Load(spec.Fleet.Session)
	if !b.on.Load() || !ok {
		return b.real.Run(ctx, spec)
	}
	ids := v.(sessionSpans)
	simSpec := simSpecOf(spec)
	cfg := experiments.Config{Cache: b.cache}
	id := b.tr.begin("simcache.hit", ids.run, spec.Fleet.Session)
	res := cfg.Sim(simSpec)
	b.tr.end(id)
	id = b.tr.begin("core.detect", ids.run, spec.Fleet.Session)
	rng := rand.New(rand.NewSource(experiments.DetectSeed(simSpec.Seed)))
	det, err := core.DetectCommonBottleneck(rng,
		core.DetectorInput{M1: &res.M1, M2: &res.M2}, core.DetectorConfig{})
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &service.Result{
		Backend:        service.BackendSim,
		WeHeDetected:   true,
		Confirmed:      true,
		LocalizedToISP: det.Evidence.Found(),
		Evidence:       det.Evidence.String(),
		LossRates:      res.LossRate,
	}, nil
}

// simSpecOf is the SimSpec the sim backend runs for a campaign job spec.
func simSpecOf(spec service.Spec) experiments.SimSpec {
	s := experiments.SimSpec{App: spec.Sim.App, Duration: spec.Sim.Duration, Seed: spec.Seed}
	if spec.Sim.Placement == "noncommon" {
		s.Placement = experiments.LimiterNonCommon
	}
	return s
}

// session is one submitted session's record.
type session struct {
	index    int // position in the campaign plan
	due      time.Time
	sent     time.Time
	answered time.Time
	seen     time.Time // closed loop: when the client saw the job terminal
	id       string
	err      error
	job      service.Job
	spans    sessionSpans
}

// setUpServe builds the campaign, pre-warms the sim cache with every
// distinct simulation (so each served session is a cache hit), starts the
// server and sends the warm-up requests.
func (r *run) setUpServe(i int) (*serveSetup, error) {
	st := &serveSetup{dir: filepath.Join(r.dir, fmt.Sprintf("serve-%d", i))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	third := r.opt.seconds / 3
	sessions := r.scale(200, 10) + int((100+400+1500)*third) + 64
	st.camp = fleet.NewCampaign("bench-serve", experiments.FleetCampaignSpec{
		ThrottledISPs: []int{2, 9},
		StarvedISPs:   []int{5},
		Sessions:      sessions,
		SeedPool:      r.scale(8, 1),
		Seed:          r.opt.seed,
	})
	st.plan = st.camp.Plan()
	st.specs = st.camp.JobSpecs()
	for i := range st.specs {
		// One server pair per site: sessions through one pair serialize.
		st.specs[i].ServerPair = fmt.Sprintf("pair-%d", st.specs[i].Fleet.Server)
	}

	st.cache = experiments.NewSimCache()
	cfg := experiments.Config{Cache: st.cache, Workers: r.nproc}
	var distinct []experiments.SimSpec
	st.expected = make(map[experiments.SimSpec]experiments.SimVerdict)
	for _, sess := range st.plan {
		if _, ok := st.expected[sess.Spec]; !ok {
			st.expected[sess.Spec] = experiments.SimVerdict{}
			distinct = append(distinct, sess.Spec)
		}
	}
	type warmed struct {
		v   experiments.SimVerdict
		err error
	}
	for i, w := range experiments.ForEach(len(distinct), r.nproc, func(i int) warmed {
		v, err := cfg.Verdict(distinct[i])
		return warmed{v, err}
	}) {
		if w.err != nil {
			return nil, w.err
		}
		st.expected[distinct[i]] = w.v
	}

	real := service.NewSimBackend(st.cache)
	var backend service.Backend = real
	if r.tr != nil {
		st.backend = &tracedSimBackend{real: real, cache: st.cache, tr: r.tr}
		backend = st.backend
	}
	srv, err := startServer(service.Options{
		Workers:     r.nproc,
		QueueLimit:  4096,
		JournalPath: filepath.Join(st.dir, "journal.wj"),
		Backends:    map[string]service.Backend{service.BackendSim: backend},
	}, r.nproc)
	if err != nil {
		return nil, err
	}
	st.srv = srv

	warm := r.closedLoop(st, 0, r.scale(200, 10), false)
	for _, s := range warm {
		if s.err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up request: %w", s.err)
		}
	}
	return st, nil
}

func (st *serveSetup) discard() {
	st.srv.stop()
	os.RemoveAll(st.dir)
}

// take hands out the next unsent session, false when the plan is used up.
func (st *serveSetup) take() (int, bool) {
	i := int(st.next.Add(1)) - 1
	return i, i < len(st.specs)
}

// taken is how many sessions were handed out: plan[:taken()] were sent.
func (st *serveSetup) taken() int {
	if n := int(st.next.Load()); n < len(st.specs) {
		return n
	}
	return len(st.specs)
}

// open prepares a session's spans before it is submitted, so the backend
// can hang its spans under them; the intervals are filled in afterwards
// from the job's timestamps.
func (r *run) open(st *serveSetup, s *session, traced bool) {
	if !traced {
		return
	}
	s.spans.root = r.tr.add("bench.session", s.due, s.due, -1, s.index)
	s.spans.run = r.tr.add("service.run", s.due, s.due, s.spans.root, s.index)
	st.backend.ids.Store(s.index, s.spans)
}

// submit sends one session and notes when.
func (r *run) submit(ctx context.Context, st *serveSetup, s *session) {
	s.sent = clock.Now()
	job, err := st.srv.client.Submit(ctx, st.specs[s.index])
	s.answered = clock.Now()
	s.id, s.err = job.ID, err
}

// closedLoop runs nproc clients, each submitting a session and polling it
// to a terminal state before sending the next, for `length` (or, when
// count > 0, until that many sessions were sent).
func (r *run) closedLoop(st *serveSetup, length time.Duration, count int, traced bool) []*session {
	ctx := context.Background()
	start := clock.Now()
	var sent atomic.Int64
	var mu sync.Mutex
	var all []*session
	var wg sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*session
			for {
				if count > 0 && sent.Add(1) > int64(count) {
					break
				}
				if count == 0 && clock.Since(start) >= length {
					break
				}
				i, ok := st.take()
				if !ok {
					break
				}
				s := &session{index: i, due: clock.Now()}
				r.open(st, s, traced)
				r.submit(ctx, st, s)
				for s.err == nil {
					s.job, s.err = st.srv.client.Job(ctx, s.id)
					if s.err != nil || s.job.State.Terminal() {
						break
					}
					sleep(200 * time.Microsecond)
				}
				s.seen = clock.Now()
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].seen.Before(all[j].seen) })
	return all
}

// closedChunks reads the closed loop's sessions chunk by chunk: the
// clients' session times (submit to seeing the verdict) in completion
// order.
func closedChunks(clients int, sessions []*session) chunked {
	var times []float64
	for _, s := range sessions {
		if s.err == nil {
			times = append(times, ms(s.seen.Sub(s.due)))
		}
	}
	return readChunks(clients, times, chunkSize(len(times), 1))
}

// backlogSettle is how long after an open-loop phase's end its backlog is
// read.
const backlogSettle = 25 * time.Millisecond

// openPhase is one open-loop phase's outcome.
type openPhase struct {
	sessions []*session
	backlog  int // Queued + Running backlogSettle after the phase ended
}

// openLoop sends sessions on a Poisson schedule drawn from rng, whatever
// the service does: a dispatcher releases each session at its due time to
// nproc sender goroutines (one connection each). A session is timed from
// its due time, so a stall's cost to later sessions counts; how late the
// senders ran is reported separately.
func (r *run) openLoop(st *serveSetup, rng *rand.Rand, rate float64, length time.Duration, traced bool) openPhase {
	ctx := context.Background()
	schedule := poissonSchedule(rng, rate, length)
	queue := make(chan *session, len(schedule)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range queue {
				r.submit(ctx, st, s)
			}
		}()
	}
	var phase openPhase
	start := clock.Now()
	for _, offset := range schedule {
		i, ok := st.take()
		if !ok {
			break
		}
		s := &session{index: i, due: start.Add(offset)}
		if wait := s.due.Sub(clock.Now()); wait > 0 {
			sleep(wait)
		}
		r.open(st, s, traced)
		phase.sessions = append(phase.sessions, s)
		queue <- s
	}
	close(queue)
	// A session that arrived in the phase's last instant is in flight, not
	// backlog: read the backlog once the phase is over by several verdict
	// times.
	if wait := start.Add(length + backlogSettle).Sub(clock.Now()); wait > 0 {
		sleep(wait)
	}
	m := st.srv.sched.Metrics()
	phase.backlog = m.Queued + m.Running
	wg.Wait()

	// Let the backlog drain for a bounded grace time, then read every
	// job's final state; what is still unfinished counts as failed.
	deadline := clock.Now().Add(2 * time.Second)
	for clock.Now().Before(deadline) {
		if m := st.srv.sched.Metrics(); m.Queued+m.Running+m.WaitRetry == 0 {
			break
		}
		sleep(2 * time.Millisecond)
	}
	r.fetchJobs(ctx, st, phase.sessions)
	return phase
}

// fetchJobs reads the sessions' final job snapshots in status batches.
func (r *run) fetchJobs(ctx context.Context, st *serveSetup, sessions []*session) {
	byID := make(map[string]*session, len(sessions))
	var ids []string
	for _, s := range sessions {
		if s.err == nil {
			byID[s.id] = s
			ids = append(ids, s.id)
		}
	}
	for len(ids) > 0 {
		n := len(ids)
		if n > service.ListLimitMax {
			n = service.ListLimitMax
		}
		jobs, _, err := st.srv.client.StatusBatch(ctx, ids[:n])
		if err != nil {
			for _, id := range ids[:n] {
				byID[id].err = err
			}
		}
		for _, j := range jobs {
			byID[j.ID].job = j
		}
		ids = ids[n:]
	}
}

// phaseStats checks a phase's sessions and reduces them to latencies.
type phaseStats struct {
	verdictMs, lateMs, submitMs, queueMs, runMs []float64
}

func (r *run) checkSessions(st *serveSetup, name string, sessions []*session, traced bool, out *phaseStats) (completed int) {
	for _, s := range sessions {
		r.attempted++
		switch {
		case s.err != nil:
			r.fail(1, "%s session %d: %v", name, s.index, s.err)
			continue
		case s.job.State != service.StateDone || s.job.Result == nil:
			r.fail(1, "%s session %d: job %s is %q at the phase deadline", name, s.index, s.id, s.job.State)
			continue
		}
		want := st.expected[st.plan[s.index].Spec]
		got := s.job.Result
		if got.LocalizedToISP != want.LocalizedToISP || got.Evidence != want.Evidence || got.LossRates != want.LossRate {
			r.fail(1, "%s session %d: result differs from the in-process Config.Verdict", name, s.index)
			continue
		}
		completed++
		j := s.job
		out.verdictMs = append(out.verdictMs, ms(j.FinishedAt.Sub(s.due)))
		out.lateMs = append(out.lateMs, ms(s.sent.Sub(s.due)))
		out.submitMs = append(out.submitMs, ms(s.answered.Sub(s.sent)))
		out.queueMs = append(out.queueMs, ms(j.StartedAt.Sub(j.SubmittedAt)))
		out.runMs = append(out.runMs, ms(j.FinishedAt.Sub(j.StartedAt)))
		if traced {
			tr := r.tr
			tr.patch(s.spans.root, s.due, j.FinishedAt)
			tr.patch(s.spans.run, j.StartedAt, j.FinishedAt)
			tr.add("bench.generator_late", s.due, s.sent, s.spans.root, s.index)
			tr.add("service.submit_http", s.sent, s.answered, s.spans.root, s.index)
			tr.add("service.queue_wait", j.SubmittedAt, j.StartedAt, s.spans.root, s.index)
		}
	}
	return completed
}

// liveFollower syncs a fleet.Follower against the server while the phases
// run — the map being built live is part of the workload — and samples how
// far behind it is.
type liveFollower struct {
	f    *fleet.Follower
	stop chan struct{}
	wg   sync.WaitGroup
	lag  []float64
	busy time.Duration
	err  error
}

func startFollower(st *serveSetup) *liveFollower {
	lf := &liveFollower{
		f:    &fleet.Follower{Client: st.srv.client, Campaign: st.camp.Name},
		stop: make(chan struct{}),
	}
	lf.wg.Add(1)
	go func() {
		defer lf.wg.Done()
		for {
			t0 := clock.Now()
			_, err := lf.f.Sync(context.Background())
			lf.busy += clock.Since(t0)
			if err != nil {
				lf.err = err
				return
			}
			lf.lag = append(lf.lag, float64(int64(st.taken())-lf.f.Stats().Credited))
			t := clock.System.NewTimer(50 * time.Millisecond)
			select {
			case <-lf.stop:
				t.Stop()
				return
			case <-t.C():
			}
		}
	}()
	return lf
}

// finish stops the live loop and syncs until nothing is pending.
func (lf *liveFollower) finish() error {
	close(lf.stop)
	lf.wg.Wait()
	if lf.err != nil {
		return lf.err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t0 := clock.Now()
	err := lf.f.Follow(ctx, 0)
	lf.busy += clock.Since(t0)
	return err
}

// runServeArrivals: the campaign operator. Independent sessions arrive one
// POST /jobs at a time; every one is a sim-cache hit, so the service, the
// detectors and the follower are the whole cost.
func runServeArrivals(r *run) error {
	st, err := repeatSetup(r, 3, r.setUpServe, func(st *serveSetup) { st.discard() })
	if err != nil {
		return err
	}
	defer st.discard()

	third := time.Duration(r.opt.seconds / 3 * float64(time.Second))
	traced := r.tr != nil
	rng := rand.New(rand.NewSource(r.opt.seed))
	journalBefore := fileSize(st.srv.journal)
	metricsBefore := st.srv.sched.Metrics()
	if st.backend != nil {
		st.backend.on.Store(true)
	}
	follower := startFollower(st)
	var heap *heapSampler
	if traced {
		heap = startHeapSampler()
	}
	before := takeCost()

	var all phaseStats
	sessions := 0
	for _, ph := range []struct {
		tag  string
		rate float64
	}{{"r100", 100}, {"r400", 400}} {
		phase := r.openLoop(st, rng, ph.rate, third, traced)
		var ps phaseStats
		done := r.checkSessions(st, ph.tag, phase.sessions, traced, &ps)
		sessions += done
		v, late := summarize(ps.verdictMs), summarize(ps.lateMs)
		r.set("verdict_ms_p50."+ph.tag, v.P50)
		r.set("verdict_ms_p95."+ph.tag, v.P95)
		r.set("bench.generator_late_ms_p95."+ph.tag, late.P95)
		r.set("bench.backlog_end."+ph.tag, float64(phase.backlog))
		fmt.Printf("# open loop %s: %d sessions due over %.2fs, %d completed; verdict p50 %.3f ms p95 %.3f ms; generator late p95 %.3f ms; backlog at end %d\n",
			ph.tag, len(phase.sessions), third.Seconds(), done, v.P50, v.P95, late.P95, phase.backlog)
		if ph.tag == "r100" {
			// Sessions in due order: a chunk is a stretch of the phase.
			chunks := readChunks(1, ps.verdictMs, chunkSize(len(ps.verdictMs), 1))
			r.set("op_ms_p50", chunks.bestMedian())
			r.set("op_ms_p50_run", v.P50)
			r.set("op_ms_tail", v.Tail)
			r.set("op_tail_percentile", 100*v.TailPerc)
			r.set("op_samples", float64(v.N))
		}
		all.append(ps)
	}

	// Closed loop for capacity. A traced run spends the first half with the
	// backend's spans off; its sessions/s is the base of the overhead ratio.
	closedLen := third
	baseRate := 0.0
	if traced {
		st.backend.on.Store(false)
		closedLen = third / 2
		base := r.closedLoop(st, closedLen, 0, false)
		var ps phaseStats
		baseDone := r.checkSessions(st, "closed", base, false, &ps)
		sessions += baseDone
		all.append(ps)
		baseRate = closedChunks(r.nproc, base).bestRate()
		st.backend.on.Store(true)
	}
	var closed phaseStats
	closedStart := clock.Now()
	cl := r.closedLoop(st, closedLen, 0, traced)
	closedElapsed := clock.Since(closedStart)
	done := r.checkSessions(st, "closed", cl, traced, &closed)
	sessions += done
	all.append(closed)
	chunks := closedChunks(r.nproc, cl)
	rate := chunks.bestRate()
	r.set("sessions_per_s", rate)
	r.set("ops_per_s", rate)
	r.set("ops_per_s_wall", float64(done)/closedElapsed.Seconds())
	if baseRate > 0 {
		r.set("bench.trace_overhead_ratio", rate/baseRate)
	}
	fmt.Printf("# closed loop: %d clients, %d sessions in %.2fs; %s\n", r.nproc, done, closedElapsed.Seconds(), chunks)

	cost := takeCost().since(before)
	if heap != nil {
		heap.finish(r)
	}

	// The map a follower builds equals the one aggregated in-process from
	// the plan and the expected verdicts of every session the server
	// accepted. The check uses a fresh follower over the now quiet server:
	// the live one can lose jobs, because GET /jobs pages by submission
	// sequence while concurrent single submits publish out of sequence
	// (a job numbered before the cursor can appear after the cursor passed
	// it). How many it lost is reported, not failed: fixing the paging is a
	// robustness issue of its own.
	if err := follower.finish(); err != nil {
		r.fail(1, "follower: %v", err)
	}
	missed := int64(st.taken()) - follower.f.Stats().Credited
	fmt.Printf("# live follower: %d of %d sessions credited, %d missed behind the paging cursor\n",
		follower.f.Stats().Credited, st.taken(), missed)
	fresh := &fleet.Follower{Client: st.srv.client, Campaign: st.camp.Name}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fresh.Follow(ctx, int64(st.taken())); err != nil {
		r.fail(1, "fresh follower: %v", err)
	}
	want := fleet.NewAggregator()
	for _, sess := range st.plan[:st.taken()] {
		want.Observe(fleet.Cell{ISP: sess.ISP, App: sess.Spec.App}, st.expected[sess.Spec].LocalizedToISP)
	}
	ident := st.camp.PathMatrix().Identify()
	r.attempted++
	if !sameMap(want.Snapshot(ident), fresh.Agg.Snapshot(ident)) {
		r.fail(1, "the map a follower builds differs from the in-process map")
	}

	stats := st.cache.Stats()
	r.attempted++
	if stats.Misses != int64(len(st.expected)) || stats.DiskHits != 0 {
		r.fail(1, "served sessions were not all cache hits: %+v (expected %d set-up misses)", stats, len(st.expected))
	}
	if !traced {
		return nil
	}

	stats.Misses = 0 // set-up's pre-warming, not the served sessions
	r.setCacheStats(stats)
	r.setGoCost(cost, float64(sessions))
	sub, q, run := summarize(all.submitMs), summarize(all.queueMs), summarize(all.runMs)
	r.set("service.submit_http_ms_p50", sub.P50)
	r.set("service.submit_http_ms_p95", sub.P95)
	r.set("service.queue_wait_ms_p50", q.P50)
	r.set("service.queue_wait_ms_p95", q.P95)
	r.set("service.run_ms_p50", run.P50)
	r.set("service.run_ms_p95", run.P95)
	r.setServiceCounters(metricsBefore, st.srv.sched.Metrics(), fileSize(st.srv.journal)-journalBefore)
	fs := follower.f.Stats()
	r.set("fleet.follow_pages", float64(fs.Pages))
	r.set("fleet.follow_status_batches", float64(fs.StatusBatches))
	r.set("fleet.follow_lag_jobs_p95", summarize(follower.lag).P95)
	r.set("fleet.follow_missed_jobs", float64(missed))
	if follower.busy > 0 {
		r.set("fleet.follow_jobs_per_s", float64(fs.Credited)/follower.busy.Seconds())
	}
	r.setDetectFromSpans()
	return nil
}

func (p *phaseStats) append(o phaseStats) {
	p.verdictMs = append(p.verdictMs, o.verdictMs...)
	p.lateMs = append(p.lateMs, o.lateMs...)
	p.submitMs = append(p.submitMs, o.submitMs...)
	p.queueMs = append(p.queueMs, o.queueMs...)
	p.runMs = append(p.runMs, o.runMs...)
}

// setServiceCounters reports the scheduler's counters over a timed part.
func (r *run) setServiceCounters(before, after service.Metrics, journalBytes int64) {
	jobs := float64(after.Submitted - before.Submitted)
	commits := float64(after.JournalBatchCommits - before.JournalBatchCommits)
	r.set("service.journal_commits", commits)
	if commits > 0 {
		r.set("service.journal_records_per_commit", float64(after.JournalBatchRecords-before.JournalBatchRecords)/commits)
	}
	if jobs > 0 {
		r.set("service.journal_bytes_per_job", float64(journalBytes)/jobs)
		r.set("service.claim_scans_per_job", float64(after.ClaimScans-before.ClaimScans)/jobs)
	}
	r.set("service.claim_pair_skips", float64(after.ClaimPairSkips-before.ClaimPairSkips))
	r.set("service.rejected", float64(after.Rejected-before.Rejected))
	r.set("service.retried", float64(after.Retried-before.Retried))
}

// setDetectFromSpans reports the detector's busy time and distribution
// from the core.detect spans the traced backend recorded.
func (r *run) setDetectFromSpans() {
	var busy time.Duration
	var each []float64
	for _, s := range r.tr.snapshot() {
		if s.Name == "core.detect" && s.End >= s.Start {
			d := time.Duration(s.End - s.Start)
			busy += d
			each = append(each, us(d))
		}
	}
	sum := summarize(each)
	r.set("core.detect_busy_s", busy.Seconds())
	r.set("core.detect_us_p50", sum.P50)
	r.set("core.detect_us_p95", sum.P95)
}

// sameMap compares two maps by their canonical rendering.
func sameMap(a, b fleet.Map) bool {
	x, errA := a.MarshalIndent()
	y, errB := b.MarshalIndent()
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// sleep waits d on the system clock.
func sleep(d time.Duration) {
	<-clock.System.NewTimer(d).C()
}
