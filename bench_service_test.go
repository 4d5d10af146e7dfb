package wehey_test

// Control-plane load harness: the service benchmark family measures the
// campaign scheduler's own throughput with the measurement cost zeroed
// out by the null backend. ServiceSubmit isolates the admission+journal
// path and reports jobs/s for the per-record-fsync baseline and the
// group-commit batch path side by side — their ratio is the headline
// number BENCH_9.json is committed to hold. ServiceSustained runs the
// full submit→schedule→execute→journal loop and adds p99 submit latency.
//
// Run: go test -bench Service -benchtime 2s

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/service"
)

// submitBatchSize is the batch the load harness submits per operation —
// also the per-iteration job count of the sequential baseline, so both
// sub-benchmarks do identical work per iteration and differ only in how
// it reaches the journal.
const submitBatchSize = 256

func benchScheduler(b *testing.B, journal bool) *service.Scheduler {
	b.Helper()
	opts := service.Options{
		Workers:    8,
		QueueLimit: 1 << 30, // admission control off: this measures throughput, not shedding
		Backends:   map[string]service.Backend{service.BackendNull: service.NullBackend{}},
	}
	if journal {
		opts.JournalPath = filepath.Join(b.TempDir(), "journal.wj")
	}
	s, err := service.NewScheduler(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

func nullSpecs(n int, seed int64) []service.Spec {
	specs := make([]service.Spec, n)
	for i := range specs {
		specs[i] = service.Spec{Backend: service.BackendNull, Seed: seed + int64(i)}
	}
	return specs
}

// BenchmarkServiceSubmit measures the admission+journal path alone (the
// scheduler is never started, so no execution interferes). Each
// iteration admits submitBatchSize jobs; the sub-benchmarks differ only
// in fsync amortization:
//
//	fsync-per-record: sequential Submit calls — every record pays its
//	                  own group commit (the pre-batching baseline).
//	group-commit:     one SubmitBatch call — the whole batch rides one
//	                  write+fsync.
func BenchmarkServiceSubmit(b *testing.B) {
	b.Run("fsync-per-record", func(b *testing.B) {
		s := benchScheduler(b, true)
		var seed int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < submitBatchSize; k++ {
				if _, err := s.Submit(service.Spec{Backend: service.BackendNull, Seed: seed}); err != nil {
					b.Fatal(err)
				}
				seed++
			}
		}
		b.StopTimer()
		reportJobsPerSec(b, submitBatchSize)
	})
	b.Run("group-commit", func(b *testing.B) {
		s := benchScheduler(b, true)
		var seed int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SubmitBatch(nullSpecs(submitBatchSize, seed)); err != nil {
				b.Fatal(err)
			}
			seed += submitBatchSize
		}
		b.StopTimer()
		reportJobsPerSec(b, submitBatchSize)
	})
}

// BenchmarkServiceSustained runs the whole control plane: batched
// submissions against a started scheduler with the null backend, every
// job journaled twice (submit + terminal) and executed by the worker
// pool. Reported metrics: end-to-end jobs/s (the drain is inside the
// timed region) and the p99 latency of the submit call itself.
func BenchmarkServiceSustained(b *testing.B) {
	s := benchScheduler(b, true)
	s.Start()
	var seed int64
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := s.SubmitBatch(nullSpecs(submitBatchSize, seed)); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
		seed += submitBatchSize
	}
	// Drain: the throughput number covers completion, not just admission.
	total := int64(b.N) * submitBatchSize
	for {
		m := s.Metrics()
		if m.Done >= total {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	reportJobsPerSec(b, submitBatchSize)
	sort.Slice(lat, func(i, k int) bool { return lat[i] < lat[k] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds())/1e6, "p99-submit-ms")
	if m := s.Metrics(); m.JournalBatchCommits > 0 {
		b.ReportMetric(float64(m.JournalBatchRecords)/float64(m.JournalBatchCommits), "records/commit")
	}
}

func reportJobsPerSec(b *testing.B, perOp int) {
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*perOp)/elapsed, "jobs/s")
	}
}

// BenchmarkServiceStatusBatch measures the read side at depth: a 10k-job
// campaign snapshotted through GetBatch in pages of 256 (one ID-index
// lookup and one Job copy per ID, all under a single lock acquisition).
func BenchmarkServiceStatusBatch(b *testing.B) {
	s := benchScheduler(b, false)
	jobs, err := s.SubmitBatch(nullSpecs(10000, 0))
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, submitBatchSize)
	for i := range ids {
		ids[i] = jobs[i*len(jobs)/len(ids)].ID
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, missing := s.GetBatch(ids)
		if len(got) != len(ids) || len(missing) != 0 {
			b.Fatalf("got %d jobs, %d missing", len(got), len(missing))
		}
		_ = fmt.Sprintf("%d", len(got)) // keep the snapshot from being optimized away
	}
}
