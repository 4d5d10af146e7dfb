package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
)

// Client is a small typed client for the admin plane, used by
// cmd/wehey-submit, the tests, and the CI smoke job.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Clock paces Await polling (default clock.System).
	Clock clock.Clock
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) clk() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.System
}

// do performs one request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("service client: encode request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("service client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("service client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("service client: %s %s: %s (%s)", method, path, resp.Status, e.Error)
		}
		return fmt.Errorf("service client: %s %s: %s", method, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	// The body is read once and then decoded: by the wire codec when it is
	// a Job-bearing response in the form the server writes, by
	// encoding/json otherwise. Neither keeps a reference into the bytes,
	// so the buffer goes back to the pool.
	buf := wireBufs.Get().(*bytes.Buffer)
	defer wireBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("service client: read response: %w", err)
	}
	if unmarshalWire(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), out) {
		return nil
	}
	if err := json.NewDecoder(buf).Decode(out); err != nil {
		return fmt.Errorf("service client: decode response: %w", err)
	}
	return nil
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Submit posts a spec and returns the admitted job.
func (c *Client) Submit(ctx context.Context, spec Spec) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodPost, "/jobs", &spec, &job)
	return job, err
}

// SubmitBatch posts many specs in one round-trip (one journal group
// commit server-side) and returns the admitted jobs. Admission is
// all-or-nothing.
func (c *Client) SubmitBatch(ctx context.Context, specs []Spec) ([]Job, error) {
	var jobs []Job
	err := c.do(ctx, http.MethodPost, "/jobs:batch", &BatchRequest{Specs: specs}, &jobs)
	return jobs, err
}

// StatusBatch snapshots many jobs by ID in one round-trip, returning the
// jobs that exist and the IDs that do not.
func (c *Client) StatusBatch(ctx context.Context, ids []string) ([]Job, []string, error) {
	var resp BatchStatusResponse
	err := c.do(ctx, http.MethodPost, "/jobs/status:batch", &BatchStatusRequest{IDs: ids}, &resp)
	return resp.Jobs, resp.Missing, err
}

// Jobs lists every job, paging through the server's /jobs cursor so a
// 10k-job campaign arrives in bounded requests rather than one unbounded
// buffer. The full set is still materialized client-side; use JobsPage
// directly to stream.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var all []Job
	after := ""
	for {
		page, err := c.JobsPage(ctx, after, 0)
		if err != nil {
			return nil, err
		}
		all = append(all, page...)
		if len(page) < jobsPageSize {
			return all, nil
		}
		after = page[len(page)-1].ID
	}
}

// jobsPageSize is the page the transparent lister asks for — the server's
// maximum, to minimize round-trips.
const jobsPageSize = listLimitMax

// JobsPage fetches one page of jobs after the given cursor (a job ID or
// sequence number; "" starts from the beginning). limit <= 0 asks for the
// server's maximum page.
func (c *Client) JobsPage(ctx context.Context, after string, limit int) ([]Job, error) {
	if limit <= 0 {
		limit = jobsPageSize
	}
	q := url.Values{}
	q.Set("limit", strconv.Itoa(limit))
	if after != "" {
		q.Set("after", after)
	}
	var jobs []Job
	err := c.do(ctx, http.MethodGet, "/jobs?"+q.Encode(), nil, &jobs)
	return jobs, err
}

// Job fetches one job.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &job)
	return job, err
}

// Cancel cancels one job.
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, &job)
	return job, err
}

// Metrics fetches the counter snapshot.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// Await polls a job until it reaches a terminal state, the context ends,
// or the server becomes unreachable. poll <= 0 defaults to 250 ms.
func (c *Client) Await(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return Job{}, err
		}
		if job.State.Terminal() {
			return job, nil
		}
		t := c.clk().NewTimer(poll)
		select {
		case <-t.C():
		case <-ctx.Done():
			t.Stop()
			return job, ctx.Err()
		}
	}
}
