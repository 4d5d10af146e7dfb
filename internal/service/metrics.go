package service

import "time"

// Metrics is the expvar-style counter snapshot served at /metrics. All
// counts are cumulative for the scheduler's lifetime except the gauges
// (Queued, Running, WaitRetry). The snapshot is assembled entirely from
// atomics — reading /metrics never takes a scheduler lock, so probing a
// loaded server does not perturb it.
type Metrics struct {
	// Gauges: current queue/pool occupancy.
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	WaitRetry int `json:"wait_retry"`

	// Lifecycle counters.
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Retried   int64 `json:"retried"`
	Rejected  int64 `json:"rejected"`
	Resumed   int64 `json:"resumed"`
	// FinishedBeforeDurable counts jobs whose attempt ended while their
	// submit's fsync was in flight: the verdict was ready at the ack.
	FinishedBeforeDurable int64 `json:"finished_before_durable"`

	// Batch-submission counters: batches accepted via SubmitBatch with
	// more than one spec, and the jobs they carried.
	BatchSubmits int64 `json:"batch_submits"`
	BatchJobs    int64 `json:"batch_jobs"`

	// Claim visibility: how many times a worker went to the queue for a
	// job, and how many jobs those claims passed over because their server
	// pair's token was held (pair-serialization contention).
	ClaimScans     int64 `json:"claim_scans"`
	ClaimPairSkips int64 `json:"claim_pair_skips"`

	// QueueLatencyMean is the mean queued→running wait over every attempt
	// started so far (scheduler-clock time).
	QueueLatencyMean time.Duration `json:"queue_latency_mean_ns"`

	// Journal health. JournalAppends and JournalBatchRecords both count
	// records made durable (two keys, one counter: a finished job's record
	// trails its visible state by up to one commit); JournalBatchCommits
	// counts fsyncs. Their ratio is the group-commit amortization factor
	// (1.0 = no batching benefit).
	JournalAppends      int64 `json:"journal_appends"`
	JournalBatchCommits int64 `json:"journal_batch_commits"`
	JournalBatchRecords int64 `json:"journal_batch_records"`
	JournalDroppedBytes int   `json:"journal_dropped_bytes"`
	JournalDupTerminals int64 `json:"journal_dup_terminals"`

	// Simulation cache hit-through (from the "sim" backend's cache, when
	// that backend is installed): repeated identical sim jobs land as
	// SimCacheHits instead of recomputing.
	SimCacheHits     int64 `json:"sim_cache_hits"`
	SimCacheDiskHits int64 `json:"sim_cache_disk_hits"`
	SimCacheMisses   int64 `json:"sim_cache_misses"`
}

// Metrics snapshots the scheduler counters.
func (s *Scheduler) Metrics() Metrics {
	m := Metrics{
		Queued:                int(s.queued.Load()),
		Running:               int(s.c.running.Load()),
		WaitRetry:             int(s.c.waitRetry.Load()),
		Submitted:             s.c.submitted.Load(),
		Done:                  s.c.done.Load(),
		Failed:                s.c.failed.Load(),
		Canceled:              s.c.canceled.Load(),
		Retried:               s.c.retried.Load(),
		Rejected:              s.c.rejected.Load(),
		Resumed:               s.c.resumed.Load(),
		FinishedBeforeDurable: s.c.finishedBeforeDurable.Load(),
		BatchSubmits:          s.c.batchSubmits.Load(),
		BatchJobs:             s.c.batchJobs.Load(),
		ClaimScans:            s.c.claimScans.Load(),
		ClaimPairSkips:        s.c.claimPairSkips.Load(),
		JournalDroppedBytes:   int(s.c.journalDroppedBytes.Load()),
		JournalDupTerminals:   s.c.journalDupTerminals.Load(),
	}
	if n := s.c.latencyCount.Load(); n > 0 {
		m.QueueLatencyMean = time.Duration(s.c.latencyTotalNs.Load() / n)
	}
	if s.journal != nil {
		js := s.journal.Stats()
		m.JournalAppends = js.Records
		m.JournalBatchCommits = js.Commits
		m.JournalBatchRecords = js.Records
	}
	if sb, ok := s.opts.Backends[BackendSim].(*SimBackend); ok {
		st := sb.CacheStats()
		m.SimCacheHits = st.Hits
		m.SimCacheDiskHits = st.DiskHits
		m.SimCacheMisses = st.Misses
	}
	return m
}
