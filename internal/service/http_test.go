package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/framing/framingtest"
)

// newHTTPFixture starts a scheduler (stub + real sim backends) behind an
// httptest server and returns a client for it.
func newHTTPFixture(t *testing.T) (*Client, *Scheduler) {
	t.Helper()
	s, err := NewScheduler(Options{
		Workers: 2,
		Backends: map[string]Backend{
			"stub":     newStubBackend(),
			BackendSim: NewSimBackend(nil),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	return &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}, s
}

func TestHTTPLifecycle(t *testing.T) {
	c, _ := newHTTPFixture(t)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	job, err := c.Submit(ctx, stubSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State == "" {
		t.Fatalf("submit returned %+v", job)
	}
	done, err := c.Await(ctx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s, want done", done.State)
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Errorf("jobs = %+v, want the one submitted job", jobs)
	}

	if _, err := c.Job(ctx, "j999999"); err == nil {
		t.Error("fetching an unknown job succeeded")
	}
	if _, err := c.Submit(ctx, Spec{}); err == nil {
		t.Error("submitting an invalid spec succeeded")
	}

	// Cancel is idempotent on terminal jobs: it reports the final state.
	got, err := c.Cancel(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Errorf("cancel of done job = %s, want done", got.State)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Done != 1 || m.Submitted != 1 {
		t.Errorf("metrics = %+v, want done=1 submitted=1", m)
	}
}

func TestHTTPMethodRouting(t *testing.T) {
	c, _ := newHTTPFixture(t)
	resp, err := c.httpClient().Post(c.BaseURL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", resp.StatusCode)
	}
}

// TestHTTPJournalFailureIs500 fails the journal's commits under a live
// scheduler — a short write, a full disk, an fsync error: the refused
// submission — and every later one, the error being sticky — is the
// server's failure, not a malformed spec, while a spec that really is
// malformed still answers 400.
func TestHTTPJournalFailureIs500(t *testing.T) {
	for name, fault := range commitFaults {
		t.Run(name, func(t *testing.T) {
			fsys := framingtest.New(nil)
			s, err := newScheduler(Options{
				Workers:     1,
				JournalPath: recorderJournal,
				Backends:    map[string]Backend{"stub": newStubBackend()},
			}, fsys)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			s.Start()
			srv := httptest.NewServer(Handler(s))
			t.Cleanup(srv.Close)
			post := func(body string) (int, string) {
				resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var e struct {
					Error string `json:"error"`
				}
				json.NewDecoder(resp.Body).Decode(&e)
				return resp.StatusCode, e.Error
			}

			fsys.Hook = fault
			for i := 0; i < 2; i++ {
				status, msg := post(`{"backend":"stub","seed":1}`)
				if status != http.StatusInternalServerError || !strings.Contains(msg, "journal") {
					t.Errorf("submit %d over a failed journal = %d %q, want 500 with the journal error", i, status, msg)
				}
			}
			if status, _ := post(`{"seed":1}`); status != http.StatusBadRequest {
				t.Errorf("spec without a backend = %d, want 400", status)
			}
		})
	}
}

// TestHTTPRejectsUnrunnableSimJob: a sim job no simulation can run — an
// unknown application, a TCP video trace (which the simulator would
// replay without TCP) or an unknown limiter placement — answers 400 at
// admission instead of being journaled and failing every attempt at run
// time.
func TestHTTPRejectsUnrunnableSimJob(t *testing.T) {
	c, s := newHTTPFixture(t)
	for _, body := range []string{
		`{"backend":"sim","seed":1,"sim":{"app":"myspace"}}`,
		`{"backend":"sim","seed":1,"sim":{"app":"netflix"}}`,
		`{"backend":"sim","seed":1,"sim":{"placement":"diagonal"}}`,
	} {
		resp, err := c.HTTPClient.Post(c.BaseURL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Errorf("%d unrunnable jobs admitted", len(jobs))
	}
}

// TestHTTPSimJobsHitCache proves the cache hit-through satellite end to
// end: two identical sim jobs over the admin plane compute one simulation,
// and /metrics shows the second landing as a cache hit.
func TestHTTPSimJobsHitCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two (deduped to one) netsim trials")
	}
	c, _ := newHTTPFixture(t)
	ctx := context.Background()

	spec := Spec{
		Backend: BackendSim,
		Seed:    11,
		Sim:     &SimJob{Duration: 500 * time.Millisecond},
	}
	for i := 0; i < 2; i++ {
		job, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		done, err := c.Await(ctx, job.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDone {
			t.Fatalf("sim job %d = %s (%s), want done", i, done.State, done.Error)
		}
		if done.Result == nil || done.Result.Backend != BackendSim {
			t.Fatalf("sim job %d result = %+v", i, done.Result)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.SimCacheMisses != 1 || m.SimCacheHits != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1 (identical specs dedup)",
			m.SimCacheHits, m.SimCacheMisses)
	}
	if m.Done != 2 {
		t.Errorf("done = %d, want 2", m.Done)
	}
}

func TestClientAwaitHonorsContext(t *testing.T) {
	b := newStubBackend()
	b.block = make(chan struct{})
	defer close(b.block)
	s, err := NewScheduler(Options{Workers: 1, Backends: map[string]Backend{"stub": b}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}

	job, err := c.Submit(context.Background(), stubSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Await(ctx, job.ID, 5*time.Millisecond); err == nil {
		t.Error("Await returned nil for a never-finishing job with an expiring context")
	}
}
