package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/fleet"
	"github.com/nal-epfl/wehey/internal/service"
)

// plantedBackend is campaign_bulk's instant "sim" backend: it returns the
// planted ground truth of the job's ISP, flipped for a seeded tenth of the
// sessions, without simulating anything — so the control plane and the
// fleet layer are all that costs.
type plantedBackend struct {
	throttled map[int]bool
	seed      int64
}

func (b *plantedBackend) verdict(isp, session int) bool {
	return b.throttled[isp] != noisy(b.seed, session)
}

func (b *plantedBackend) Run(ctx context.Context, spec service.Spec) (*service.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &service.Result{
		Backend:        service.BackendSim,
		WeHeDetected:   true,
		Confirmed:      true,
		LocalizedToISP: b.verdict(spec.Fleet.ISP, spec.Fleet.Session),
	}, nil
}

// noisy picks a tenth of the sessions, by a SplitMix64 hash of the seed
// and the session index.
func noisy(seed int64, session int) bool {
	x := uint64(seed) + uint64(session)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x^(x>>31))%10 == 0
}

// bulkSetup is campaign_bulk's state.
type bulkSetup struct {
	dir     string
	camp    fleet.Campaign
	plan    []experiments.FleetSession
	specs   []service.Spec
	backend *plantedBackend
	opts    service.Options
	srv     *server
	want    fleet.Map // the map aggregated in-process from plan and backend
	warm    int64     // warm-up jobs finished before timing
}

// bulkJobs sizes the campaign: 20 000 jobs, so the journal holds 40 000
// records plus the warm-up's. Planting them takes about a third of the
// run; restart-to-map cycles fill the rest of --seconds.
const bulkJobs = 20000

func (r *run) setUpBulk(i int) (*bulkSetup, error) {
	st := &bulkSetup{dir: filepath.Join(r.dir, fmt.Sprintf("bulk-%d", i))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	st.camp = fleet.NewCampaign("bench-bulk", experiments.FleetCampaignSpec{
		ThrottledISPs: []int{2, 9},
		StarvedISPs:   []int{5},
		Sessions:      r.scale(bulkJobs, 1000),
		Seed:          r.opt.seed,
	})
	st.plan = st.camp.Plan()
	st.specs = st.camp.JobSpecs()
	st.backend = &plantedBackend{throttled: map[int]bool{2: true, 9: true}, seed: r.opt.seed}
	agg := fleet.NewAggregator()
	for _, sess := range st.plan {
		agg.Observe(fleet.Cell{ISP: sess.ISP, App: sess.Spec.App}, st.backend.verdict(sess.ISP, sess.Index))
	}
	st.want = agg.Snapshot(st.camp.PathMatrix().Identify())
	st.opts = service.Options{
		Workers:     r.nproc,
		QueueLimit:  2048,
		JournalPath: filepath.Join(st.dir, "journal.wj"),
		Backends:    map[string]service.Backend{service.BackendSim: st.backend},
	}
	srv, err := startServer(st.opts, r.nproc)
	if err != nil {
		return nil, err
	}
	st.srv = srv

	// Warm the whole write path (HTTP, JSON, journal, workers) with a small
	// campaign of another name, which the map building then skips.
	warm := fleet.NewCampaign("bench-warm", experiments.FleetCampaignSpec{Sessions: r.scale(200, 50), Seed: r.opt.seed}).JobSpecs()
	for len(warm) > 0 {
		k := len(warm)
		if k > 500 {
			k = 500
		}
		if _, err := srv.client.SubmitBatch(context.Background(), warm[:k]); err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up batch: %w", err)
		}
		warm = warm[k:]
		for m := srv.sched.Metrics(); m.Queued+m.Running > 0; m = srv.sched.Metrics() {
			sleep(200 * time.Microsecond)
		}
	}
	st.warm = srv.sched.Metrics().Done
	return st, nil
}

func (st *bulkSetup) discard() {
	st.srv.stop()
	os.RemoveAll(st.dir)
}

// plant submits every job in batches of `batch` from one client, backing
// off while the admission queue is full as `wehey-map plant` does, then
// waits for the last job to finish. It returns the time from the first
// batch to the last terminal job.
func (r *run) plant(st *bulkSetup, batch int) (elapsed time.Duration, batchMs []float64) {
	ctx := context.Background()
	const backoff = 2 * time.Millisecond
	const backoffBudget = 30 * time.Second
	var waited time.Duration
	start := clock.Now()
	specs := st.specs
	for n := 0; len(specs) > 0; n++ {
		k := len(specs)
		if k > batch {
			k = batch
		}
		root, id := -1, -1
		if r.tr != nil {
			root = r.tr.begin("bench.plant_batch", -1, n)
			id = r.tr.begin("service.submit_batch", root, n)
		}
		t0 := clock.Now()
		_, err := st.srv.client.SubmitBatch(ctx, specs[:k])
		batchMs = append(batchMs, ms(clock.Since(t0)))
		if r.tr != nil {
			r.tr.end(id)
			r.tr.end(root)
		}
		switch {
		case err == nil:
			r.attempted += int64(k)
			specs = specs[k:]
		case strings.Contains(err.Error(), "429") && waited < backoffBudget:
			// Queue full: the batch was refused whole; try it again.
			sleep(backoff)
			waited += backoff
		default:
			r.attempted += int64(len(specs))
			r.fail(int64(len(specs)), "plant: %v", err)
			return clock.Since(start), batchMs
		}
	}
	deadline := clock.Now().Add(30 * time.Second)
	for st.srv.sched.Metrics().Done < st.warm+int64(len(st.specs)) {
		if clock.Now().After(deadline) {
			left := st.warm + int64(len(st.specs)) - st.srv.sched.Metrics().Done
			r.fail(left, "plant: %d of %d jobs unfinished after the drain deadline", left, len(st.specs))
			break
		}
		sleep(200 * time.Microsecond)
	}
	return clock.Since(start), batchMs
}

// cycleTimes are one restart-to-map cycle's three read paths.
type cycleTimes struct {
	recover, infer, follow time.Duration
}

// cycle restarts the service on the planted journal and rebuilds the map
// both ways: offline from the journal file, and through a fresh follower
// paging the recovered server. Each map must equal the in-process one.
func (r *run) cycle(st *bulkSetup, n int) (cycleTimes, error) {
	var ct cycleTimes
	span := func(name string, parent int) func() time.Duration {
		t0 := clock.Now()
		id := -1
		if r.tr != nil {
			id = r.tr.begin(name, parent, n)
		}
		return func() time.Duration {
			if r.tr != nil {
				r.tr.end(id)
			}
			return clock.Since(t0)
		}
	}
	root := -1
	if r.tr != nil {
		root = r.tr.begin("bench.cycle", -1, n)
		defer r.tr.end(root)
	}

	// Restart: close, then recover the scheduler from the journal.
	st.srv.stop()
	done := span("service.recover", root)
	sched, err := service.NewScheduler(st.opts)
	ct.recover = done()
	if err != nil {
		return ct, err
	}
	sched.Start()
	st.srv = &server{sched: sched, journal: st.opts.JournalPath}
	if err := st.srv.listen(r.nproc); err != nil {
		return ct, err
	}

	// Offline inference: journal file -> scored map.
	inferStart := clock.Now()
	done = span("service.load_journal", root)
	jobs, err := service.LoadJournalJobs(st.opts.JournalPath)
	load := done()
	if err != nil {
		return ct, err
	}
	agg := fleet.NewAggregator()
	done = span("fleet.from_jobs", root)
	credited := fleet.FromJobs(agg, st.camp.Name, jobs)
	fromJobs := done()
	done = span("tomo.identify", root)
	ident := fleet.BuildPathMatrix(st.camp.Topology(), st.plan).Identify()
	identify := done()
	done = span("fleet.snapshot", root)
	inferred := agg.Snapshot(ident)
	snapshot := done()
	done = span("fleet.score", root)
	score := st.camp.ScoreMap(inferred)
	scoreTime := done()
	ct.infer = clock.Since(inferStart)

	// Live path: a fresh follower catches up over HTTP pages.
	f := &fleet.Follower{Client: st.srv.client, Campaign: st.camp.Name}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done = span("fleet.follow", root)
	err = f.Follow(ctx, st.warm+int64(len(st.specs)))
	ct.follow = done()
	if err != nil {
		return ct, err
	}

	// Checks: counts, byte-identical maps, planted ISPs on top, the starved
	// ISP refused.
	r.attempted++
	switch {
	case credited != int64(len(st.specs)) || f.Stats().Credited != int64(len(st.specs)):
		r.fail(1, "cycle %d: journal credited %d, follower credited %d, planted %d", n, credited, f.Stats().Credited, len(st.specs))
	case !sameMap(inferred, st.want):
		r.fail(1, "cycle %d: the journal-inferred map differs from the in-process map", n)
	case !sameMap(f.Agg.Snapshot(ident), st.want):
		r.fail(1, "cycle %d: the follower-built map differs from the in-process map", n)
	case len(score.Ranking) < 2 || !score.Ranking[0].Planted || !score.Ranking[1].Planted:
		r.fail(1, "cycle %d: the planted ISPs do not rank top: %s", n, score)
	case !contains(inferred.Unidentifiable, fleet.ISPSegment(5)):
		r.fail(1, "cycle %d: the starved ISP is not reported unidentifiable: %v", n, inferred.Unidentifiable)
	}

	if r.tr != nil {
		n := float64(len(jobs))
		r.set("service.load_journal_jobs_per_s", n/load.Seconds())
		r.set("service.recover_jobs_per_s", n/ct.recover.Seconds())
		r.set("fleet.from_jobs_per_s", n/fromJobs.Seconds())
		r.set("tomo.identify_ms", ms(identify))
		r.set("fleet.snapshot_ms", ms(snapshot))
		r.set("fleet.score_ms", ms(scoreTime))
		fs := f.Stats()
		r.set("fleet.follow_jobs_per_s", float64(fs.Credited)/ct.follow.Seconds())
		r.set("fleet.follow_pages", float64(fs.Pages))
		r.set("fleet.follow_status_batches", float64(fs.StatusBatches))
	}
	return ct, nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// runCampaignBulk: the map operator. A bulk campaign is planted through
// batched writes, then the service restarts and the map is rebuilt from
// the journal and through a follower — the same service layer used for
// bulk reads.
func runCampaignBulk(r *run) error {
	st, err := repeatSetup(r, 8, r.setUpBulk, func(st *bulkSetup) { st.discard() })
	if err != nil {
		return err
	}
	defer func() { st.discard() }()

	total := time.Duration(r.opt.seconds * float64(time.Second))
	start := clock.Now()
	var heap *heapSampler
	if r.tr != nil {
		heap = startHeapSampler()
	}
	metricsBefore := st.srv.sched.Metrics()
	before := takeCost()
	batch := r.scale(500, 50)
	planted, batchMs := r.plant(st, batch)
	cost := takeCost().since(before)
	metricsAfter := st.srv.sched.Metrics()
	jobs := float64(len(st.specs))
	r.set("plant_jobs_per_s", jobs/planted.Seconds())
	fmt.Printf("# planted %d jobs in %.2fs (batches of %d, 1 client); journal %d bytes\n",
		len(st.specs), planted.Seconds(), batch, fileSize(st.opts.JournalPath))

	// Restart-to-map cycles until the time is used, at least three.
	minCycles := 3
	if r.opt.smoke {
		minCycles = 1
	}
	var offlineMs, recoverS, inferS, followS []float64
	for n := 0; n < minCycles || clock.Since(start) < total; n++ {
		ct, err := r.cycle(st, n)
		if err != nil {
			return err
		}
		offlineMs = append(offlineMs, ms(ct.recover+ct.infer))
		recoverS = append(recoverS, ct.recover.Seconds())
		inferS = append(inferS, ct.infer.Seconds())
		followS = append(followS, ct.follow.Seconds())
	}
	// The gated readings are the two read paths, each over the least
	// disturbed third of the cycles (as for the chunked readings): jobs per
	// second through a fresh follower's catch-up, and the time from a
	// stopped service to a scored map offline (recovery + journal -> map).
	// The plant rate is not gated: it is bound by one fsync per finished
	// job, and the box's fsync time moved it by a third between one
	// quarter of an hour and the next.
	third := quietThird(len(offlineMs))
	r.set("ops_per_s", jobs/mean(sortedCopy(followS)[:third]))
	r.set("op_ms_p50", mean(sortedCopy(offlineMs)[:third]))
	r.set("ops_per_s_wall", jobs/median(followS))
	r.set("op_ms_p50_run", median(offlineMs))
	r.set("recover_s", median(recoverS))
	r.set("map_infer_s", median(inferS))
	r.set("follow_catchup_s", median(followS))
	r.set("op_samples", float64(len(offlineMs)))
	r.set("op_tail_percentile", 50)
	r.set("op_ms_tail", median(offlineMs))
	fmt.Printf("# %d restart-to-map cycles: recover %.3fs, journal->map %.3fs, follower catch-up %.3fs (medians)\n",
		len(offlineMs), median(recoverS), median(inferS), median(followS))
	if r.tr == nil {
		return nil
	}

	heap.finish(r)
	r.setGoCost(cost, jobs)
	r.setServiceCounters(metricsBefore, metricsAfter, fileSize(st.opts.JournalPath))
	r.set("service.submit_batch_ms_p50", summarize(batchMs).P50)
	r.measureReads(st)
	return nil
}

// measureReads times the read calls the follower makes — a full page of
// GET /jobs and a full status batch — and an 8-shard aggregator merge.
func (r *run) measureReads(st *bulkSetup) {
	ctx := context.Background()
	var pageMs, statusMs []float64
	var all []service.Job
	after := ""
	for {
		t0 := clock.Now()
		page, err := st.srv.client.JobsPage(ctx, after, 0)
		if err != nil {
			r.fail(1, "list page: %v", err)
			return
		}
		if len(page) == service.ListLimitMax {
			pageMs = append(pageMs, ms(clock.Since(t0)))
		}
		all = append(all, page...)
		if len(page) < service.ListLimitMax {
			break
		}
		after = page[len(page)-1].ID
	}
	for lo := 0; lo+service.ListLimitMax <= len(all); lo += service.ListLimitMax {
		ids := make([]string, service.ListLimitMax)
		for i := range ids {
			ids[i] = all[lo+i].ID
		}
		t0 := clock.Now()
		if _, _, err := st.srv.client.StatusBatch(ctx, ids); err != nil {
			r.fail(1, "status batch: %v", err)
			return
		}
		statusMs = append(statusMs, ms(clock.Since(t0)))
	}
	r.set("service.list_page_ms_p50", summarize(pageMs).P50)
	r.set("service.status_batch_ms_p50", summarize(statusMs).P50)

	const shards = 8
	parts := make([]*fleet.Aggregator, shards)
	for i := range parts {
		parts[i] = fleet.NewAggregator()
	}
	for i := range all {
		fleet.FromJobs(parts[i%shards], st.camp.Name, all[i:i+1])
	}
	merged := fleet.NewAggregator()
	t0 := clock.Now()
	for _, p := range parts {
		merged.Merge(p)
	}
	r.set("fleet.merge_ms", ms(clock.Since(t0)))
	r.attempted++
	if !sameMap(merged.Snapshot(st.camp.PathMatrix().Identify()), st.want) {
		r.fail(1, "the map merged from %d shard aggregators differs from the in-process map", shards)
	}
}
