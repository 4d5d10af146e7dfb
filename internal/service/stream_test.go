package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
)

// Client.StreamJobs against the page-by-page loop it replaced, with and
// without the Link header that lets it run one request ahead.

// withoutLink serves h with the Link header taken off every response: a
// wehey-serve from before the header.
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

// onListing serves h, first calling hook with the number (from 1) of each
// GET /jobs request as it arrives; a hook that returns false has answered
// the request itself.
func onListing(h http.Handler, hook func(n int64, w http.ResponseWriter, r *http.Request) bool) http.Handler {
	var listings atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/jobs" && !hook(listings.Add(1), w, r) {
			return
		}
		h.ServeHTTP(w, r)
	})
}

// streamScheduler holds 3½ pages of queued jobs (never started, so a job
// reads the same whenever it is listed) around one hole in the sequence: a
// batch the journal refused.
func streamScheduler(t *testing.T) *Scheduler {
	t.Helper()
	s, err := NewScheduler(Options{
		QueueLimit:  5 * listLimitMax,
		JournalPath: filepath.Join(t.TempDir(), "journal.wj"),
		Clock:       clock.NewManual(time.Unix(1700000000, 0)),
		Backends:    map[string]Backend{"stub": newStubBackend()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if _, err := s.SubmitBatch(stubSpecs(0, listLimitMax-1)); err != nil {
		t.Fatal(err)
	}
	unencodable := stubSpec(0)
	unencodable.Sim = &SimJob{InputFactor: math.NaN()}
	if _, err := s.SubmitBatch([]Spec{stubSpec(0), unencodable, stubSpec(0)}); err == nil {
		t.Fatal("a batch with a NaN in a spec was admitted")
	}
	if _, err := s.SubmitBatch(stubSpecs(listLimitMax, 5*listLimitMax/2+1)); err != nil {
		t.Fatal(err)
	}
	return s
}

// pageByPage is the serial client: one JobsPage call after another until a
// short page.
func pageByPage(t *testing.T, c *Client) (all []Job, cursor string) {
	t.Helper()
	for {
		page, err := c.JobsPage(context.Background(), cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page...)
		if len(page) > 0 {
			cursor = page[len(page)-1].ID
		}
		if len(page) < listLimitMax {
			return all, cursor
		}
	}
}

// TestStreamJobsEqualsPageByPage: the stream visits the jobs, in the
// order, and ends on the cursor of a JobsPage loop — across a hole in the
// sequence, with submissions arriving while it runs (what lands behind its
// last page comes with a second call from its cursor), and against a
// server without the Link header. With the header it runs exactly one
// request ahead: page k+1 has been asked for when page k is visited, page
// k+2 has not; without it, nothing is asked for early.
func TestStreamJobsEqualsPageByPage(t *testing.T) {
	for _, link := range []bool{true, false} {
		t.Run(fmt.Sprintf("link=%v", link), func(t *testing.T) {
			s := streamScheduler(t)
			var asked atomic.Int64
			h := onListing(Handler(s), func(int64, http.ResponseWriter, *http.Request) bool {
				asked.Add(1)
				return true
			})
			if !link {
				h = withoutLink(h)
			}
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			c := &Client{BaseURL: srv.URL}
			ctx := context.Background()

			raced := make(chan error, 1)
			go func() {
				for i := 0; i < 30; i++ {
					if _, err := s.Submit(stubSpec(int64(i))); err != nil {
						raced <- err
						return
					}
				}
				raced <- nil
			}()

			var streamed []Job
			var pages int64
			visit := func(page []Job) error {
				pages++
				streamed = append(streamed, page...)
				want := pages // requests received by now
				if link && len(page) == listLimitMax {
					want++
					for deadline := time.Now().Add(10 * time.Second); asked.Load() < want && time.Now().Before(deadline); {
						time.Sleep(100 * time.Microsecond)
					}
				}
				if got := asked.Load(); got != want {
					return fmt.Errorf("visiting page %d of %d jobs: %d requests were made, want %d", pages, len(page), got, want)
				}
				return nil
			}
			cursor, err := c.StreamJobs(ctx, "", visit)
			if err != nil {
				t.Fatal(err)
			}
			if pages != 4 {
				t.Errorf("the stream visited %d pages, want 4", pages)
			}
			if err := <-raced; err != nil {
				t.Fatal(err)
			}
			asked.Store(0)
			pages = 0
			if cursor, err = c.StreamJobs(ctx, cursor, visit); err != nil {
				t.Fatal(err)
			}

			paged, pagedCursor := pageByPage(t, c)
			if !reflect.DeepEqual(streamed, paged) {
				t.Errorf("streamed %d jobs (%v…), paged %d (%v…)", len(streamed), seqsOf(streamed[:3]), len(paged), seqsOf(paged[:3]))
			}
			if cursor != pagedCursor {
				t.Errorf("stream ended on cursor %q, the page loop on %q", cursor, pagedCursor)
			}
			if want := 7*listLimitMax/2 + 30; len(paged) != want {
				t.Errorf("listed %d jobs, want %d", len(paged), want)
			}
		})
	}
}

// TestStreamJobsErrorResumes: the request for page 3 — made while page 2 is
// visited — answers 500. Pages 1 and 2 were visited, once; the stream
// returns the error and page 2's last ID, and a second call from there
// lists the rest: no job lost, none twice.
func TestStreamJobsErrorResumes(t *testing.T) {
	s := streamScheduler(t)
	srv := httptest.NewServer(onListing(Handler(s), func(n int64, w http.ResponseWriter, _ *http.Request) bool {
		if n == 3 {
			writeError(w, http.StatusInternalServerError, errors.New("disk on fire"))
		}
		return n != 3
	}))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL}

	var streamed []Job
	visit := func(page []Job) error {
		streamed = append(streamed, page...)
		return nil
	}
	cursor, err := c.StreamJobs(context.Background(), "", visit)
	if err == nil || !contains(err.Error(), "disk on fire") {
		t.Fatalf("stream over a failing page 3: %v, want its 500", err)
	}
	if len(streamed) != 2*listLimitMax || cursor != streamed[len(streamed)-1].ID {
		t.Fatalf("visited %d jobs and stopped on cursor %q, want two pages and the cursor %q", len(streamed), cursor, streamed[len(streamed)-1].ID)
	}
	if cursor, err = c.StreamJobs(context.Background(), cursor, visit); err != nil {
		t.Fatal(err)
	}
	want := s.List()
	if !reflect.DeepEqual(seqsOf(streamed), seqsOf(want)) {
		t.Errorf("the two calls visited %d jobs, the scheduler lists %d", len(streamed), len(want))
	}
	if cursor != want[len(want)-1].ID {
		t.Errorf("cursor %q after the listing, want %q", cursor, want[len(want)-1].ID)
	}
}

// TestStreamJobsCancelJoins: a stream that ends while its request for page
// 2 is out returns only once that goroutine is gone — which is also where
// the request's buffer, had it been filled, goes back to the pool. First a
// visit of page 1 fails; then the context is cancelled during that visit
// while the request sits in a handler, and the stream returns the
// context's error and page 1's cursor.
func TestStreamJobsCancelJoins(t *testing.T) {
	s := streamScheduler(t)
	arrived := make(chan struct{}, 1) // a request for page 2 has reached the server
	var block atomic.Bool
	srv := httptest.NewServer(onListing(Handler(s), func(_ int64, _ http.ResponseWriter, r *http.Request) bool {
		if r.URL.Query().Get("after") == "" {
			return true
		}
		arrived <- struct{}{}
		if block.Load() {
			<-r.Context().Done()
			return false
		}
		return true
	}))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	baseline := runtime.NumGoroutine()
	joined := func() {
		t.Helper()
		c.HTTPClient.CloseIdleConnections()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the stream:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}

	failed := errors.New("visit failed")
	visits := 0
	cursor, err := c.StreamJobs(context.Background(), "", func(page []Job) error {
		visits++
		<-arrived
		return failed
	})
	if !errors.Is(err, failed) || cursor != "" || visits != 1 {
		t.Errorf("stream with a failing visit: cursor %q, %v after %d visits; want the visit's error, no cursor, one visit", cursor, err, visits)
	}
	joined()

	block.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first []Job
	cursor, err = c.StreamJobs(ctx, "", func(page []Job) error {
		if first != nil {
			return errors.New("a second page was visited")
		}
		first = page
		<-arrived
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled stream returned %v, want context.Canceled", err)
	}
	if len(first) != listLimitMax || cursor != first[len(first)-1].ID {
		t.Errorf("cancelled stream visited %d jobs and returned cursor %q", len(first), cursor)
	}
	joined()
}

// TestJobsLinkHeader: GET /jobs names its next page in a Link header
// exactly when the page is full, and the header's target, followed as
// written, is that page.
func TestJobsLinkHeader(t *testing.T) {
	s, _ := newTestScheduler(t, Options{}, newStubBackend())
	if _, err := s.SubmitBatch(stubSpecs(0, 5)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL}

	get := func(path string) (page []Job, next string, link string) {
		t.Helper()
		buf, h, err := c.fetch(context.Background(), http.MethodGet, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeResponse(buf, &page); err != nil {
			t.Fatal(err)
		}
		return page, nextCursor(h), h.Get("Link")
	}
	for _, tc := range []struct {
		path string
		want []uint64
		next string
	}{
		{"/jobs?limit=2", []uint64{1, 2}, "j000002"},
		{"/jobs?after=j000002&limit=2", []uint64{3, 4}, "j000004"},
		{"/jobs?after=j000004&limit=2", []uint64{5}, ""},
		{"/jobs?limit=5", []uint64{1, 2, 3, 4, 5}, "j000005"},
		{"/jobs?after=j000005&limit=5", []uint64{}, ""},
		{"/jobs?limit=6", []uint64{1, 2, 3, 4, 5}, ""},
		{"/jobs", []uint64{1, 2, 3, 4, 5}, ""},
	} {
		page, next, link := get(tc.path)
		if got := seqsOf(page); !reflect.DeepEqual(got, tc.want) || next != tc.next {
			t.Errorf("GET %s = jobs %v, next %q (Link: %s); want %v, %q", tc.path, got, next, link, tc.want, tc.next)
		}
		if next == "" {
			if link != "" {
				t.Errorf("GET %s: a page that is not full carries Link: %s", tc.path, link)
			}
			continue
		}
		if seq, err := parseAfter(next); err != nil || seq != page[len(page)-1].Seq {
			t.Errorf("GET %s: cursor %q parses to %d, %v; the page ends on %d", tc.path, next, seq, err, page[len(page)-1].Seq)
		}
		// The target as written, the way `curl` would follow it.
		target := strings.TrimSuffix(strings.TrimPrefix(link, "<"), `>; rel="next"`)
		after, _, _ := get(target)
		direct := s.ListPage(page[len(page)-1].Seq, len(page))
		if !reflect.DeepEqual(seqsOf(after), seqsOf(direct)) {
			t.Errorf("GET %s (the Link target of %s) = %v, want %v", target, tc.path, seqsOf(after), seqsOf(direct))
		}
	}
}
