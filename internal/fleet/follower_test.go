package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/service"
)

// TestFollowerMatchesDirectEval is the two-path equivalence core: a
// campaign driven through a live scheduler (HTTP submit, sim backend,
// follower aggregation over paged /jobs + status batches) must render
// the exact map bytes the in-process evaluation renders — same verdicts,
// same counts, same JSON.
func TestFollowerMatchesDirectEval(t *testing.T) {
	c := NewCampaign("equiv", experiments.FleetCampaignSpec{
		ISPs: 4, Servers: 2, ThrottledISPs: []int{1}, StarvedISPs: []int{2},
		Sessions: 24, SeedPool: 2, Duration: 12 * time.Second, Seed: 5,
	})
	cache := experiments.NewSimCache()

	// Service path: real scheduler, sim backend over the shared cache.
	s, err := service.NewScheduler(service.Options{
		Workers:    4,
		QueueLimit: 256,
		Backends: map[string]service.Backend{
			service.BackendSim: service.NewSimBackend(cache),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()
	srv := httptest.NewServer(service.Handler(s))
	t.Cleanup(srv.Close)
	client := &service.Client{BaseURL: srv.URL}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	jobs, err := client.SubmitBatch(ctx, c.JobSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 24 {
		t.Fatalf("submitted %d jobs, want 24", len(jobs))
	}

	f := &Follower{Client: client, Campaign: "equiv", Poll: 5 * time.Millisecond}
	if err := f.Follow(ctx, int64(len(jobs))); err != nil {
		t.Fatal(err)
	}
	stats := f.Stats()
	if stats.Credited != 24 || stats.Pending != 0 {
		t.Fatalf("follower stats = %+v; want 24 credited, 0 pending", stats)
	}
	if stats.Pages == 0 {
		t.Error("follower fetched no pages")
	}

	ident := c.PathMatrix().Identify()
	viaService, err := f.Agg.Snapshot(ident).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	// Direct path: same campaign, same cache, no service.
	direct, err := c.Eval(experiments.Config{Cache: cache}).Snapshot(ident).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaService, direct) {
		t.Errorf("service-path map differs from direct evaluation:\nservice: %s\ndirect:  %s", viaService, direct)
	}
}

// TestFollowerIncrementalCursor: a second Follow call after more
// submissions must only page the new tail (the cursor advanced), and
// FromJobs over the full listing reproduces the same aggregate.
func TestFollowerIncrementalCursor(t *testing.T) {
	c := NewCampaign("inc", experiments.FleetCampaignSpec{
		ISPs: 2, Servers: 1, ThrottledISPs: []int{0}, Sessions: 8,
		SeedPool: 2, Duration: 12 * time.Second, Seed: 9,
	})
	cache := experiments.NewSimCache()
	s, err := service.NewScheduler(service.Options{
		Workers: 2,
		Backends: map[string]service.Backend{
			service.BackendSim: service.NewSimBackend(cache),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()
	srv := httptest.NewServer(service.Handler(s))
	t.Cleanup(srv.Close)
	client := &service.Client{BaseURL: srv.URL}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	specs := c.JobSpecs()
	f := &Follower{Client: client, Campaign: "inc", Poll: 5 * time.Millisecond}

	if _, err := client.SubmitBatch(ctx, specs[:4]); err != nil {
		t.Fatal(err)
	}
	if err := f.Follow(ctx, 4); err != nil {
		t.Fatal(err)
	}
	pagesAfterFirst := f.Stats().Pages

	if _, err := client.SubmitBatch(ctx, specs[4:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Follow(ctx, int64(len(specs))); err != nil {
		t.Fatal(err)
	}
	stats := f.Stats()
	if stats.Credited != int64(len(specs)) {
		t.Fatalf("credited %d, want %d", stats.Credited, len(specs))
	}
	if stats.Pages <= pagesAfterFirst {
		t.Error("second Follow fetched no pages")
	}

	// One-shot inference over the full listing agrees with the stream.
	all, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oneShot := NewAggregator()
	if n := FromJobs(oneShot, "inc", all); n != int64(len(specs)) {
		t.Fatalf("FromJobs credited %d, want %d", n, len(specs))
	}
	a, _ := f.Agg.Snapshot(nil).MarshalIndent()
	b, _ := oneShot.Snapshot(nil).MarshalIndent()
	if !bytes.Equal(a, b) {
		t.Error("streamed and one-shot aggregates differ")
	}
}

// withoutLink serves h with the Link header taken off every response: a
// wehey-serve from before the header, which a stream can only follow one
// page at a time.
func withoutLink(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(linkStripper{w}, r)
	})
}

type linkStripper struct{ http.ResponseWriter }

func (w linkStripper) WriteHeader(status int) {
	w.Header().Del("Link")
	w.ResponseWriter.WriteHeader(status)
}

// BenchmarkFollowerCatchUp is the live read path of the job stream at
// campaign_bulk's size: 20 000 finished fleet jobs behind the admin plane
// on a loopback listener, and per iteration one fresh follower paging all
// of them into a map — list page, JSON on both ends, HTTP, aggregation.
// The two arms are the ablation of the stream's one request ahead:
// prefetch is the server as it is, sequential the same server without its
// Link header, so each page is asked for after the one before is absorbed.
// With one processor there is nothing to overlap and the arms are level.
func BenchmarkFollowerCatchUp(b *testing.B) {
	const jobs = 20000
	s, err := service.NewScheduler(service.Options{
		QueueLimit: jobs,
		Backends:   map[string]service.Backend{service.BackendSim: service.NullBackend{}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	s.Start()
	specs := NewCampaign("bench", experiments.FleetCampaignSpec{Sessions: jobs, Seed: 1}).JobSpecs()
	for len(specs) > 0 {
		n := min(len(specs), 500)
		if _, err := s.SubmitBatch(specs[:n]); err != nil {
			b.Fatal(err)
		}
		specs = specs[n:]
	}
	for s.Metrics().Done < jobs {
		time.Sleep(time.Millisecond)
	}
	for _, arm := range []struct {
		name    string
		handler http.Handler
	}{
		{"prefetch", service.Handler(s)},
		{"sequential", withoutLink(service.Handler(s))},
	} {
		b.Run(arm.name, func(b *testing.B) {
			srv := httptest.NewServer(arm.handler)
			defer srv.Close()
			client := &service.Client{BaseURL: srv.URL}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := &Follower{Client: client, Campaign: "bench"}
				if err := f.Follow(context.Background(), jobs); err != nil {
					b.Fatal(err)
				}
				if st := f.Stats(); st.Credited != jobs || st.Pages != jobs/service.ListLimitMax+1 {
					b.Fatalf("credited %d jobs in %d pages, want %d in %d", st.Credited, st.Pages, jobs, jobs/service.ListLimitMax+1)
				}
			}
			b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
