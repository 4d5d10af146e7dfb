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
	"strings"
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
	buf, _, err := c.fetch(ctx, method, path, in)
	if err != nil {
		return err
	}
	return decodeResponse(buf, out)
}

// decodeResponse decodes a fetched body into out (nil: there is nothing to
// decode) and hands its buffer back to the pool.
func decodeResponse(buf *bytes.Buffer, out any) error {
	defer wireBufs.Put(buf)
	if out == nil {
		return nil
	}
	if err := decodeWire(buf, out); err != nil {
		return fmt.Errorf("service client: decode response: %w", err)
	}
	return nil
}

// fetch performs one request and returns the 2xx response's bytes, in a
// buffer the caller hands back to wireBufs, and its header.
func (c *Client) fetch(ctx context.Context, method, path string, in any) (*bytes.Buffer, http.Header, error) {
	var body io.Reader
	if in != nil {
		b, ok := appendWire(nil, in)
		if !ok {
			var err error
			if b, err = json.Marshal(in); err != nil {
				return nil, nil, fmt.Errorf("service client: encode request: %w", err)
			}
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, nil, fmt.Errorf("service client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("service client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		// An error message is short; whatever else answers is not read for ever.
		if json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&e) == nil && e.Error != "" {
			return nil, nil, fmt.Errorf("service client: %s %s: %s (%s)", method, path, resp.Status, e.Error)
		}
		return nil, nil, fmt.Errorf("service client: %s %s: %s", method, path, resp.Status)
	}
	buf := wireBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		wireBufs.Put(buf)
		return nil, nil, fmt.Errorf("service client: read response: %w", err)
	}
	return buf, resp.Header, nil
}

// decodeWire decodes the JSON in buf into out: by the wire codec when it is
// a Job-bearing body in the form this package writes, by encoding/json
// otherwise. Neither keeps a reference into the bytes, so the buffer can go
// back to the pool.
func decodeWire(buf *bytes.Buffer, out any) error {
	if unmarshalWire(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), out) {
		return nil
	}
	return json.NewDecoder(buf).Decode(out)
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
// buffer. The full set is still materialized client-side; use StreamJobs
// to consume it page by page.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var all []Job
	_, err := c.StreamJobs(ctx, "", func(page []Job) error {
		all = append(all, page...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return all, nil
}

// jobsPageSize is the page the transparent lister asks for — the server's
// maximum, to minimize round-trips.
const jobsPageSize = listLimitMax

// StreamJobs hands visit every page of jobs after the cursor, in order, up
// to and including the first short one, and returns the cursor after the
// last page visited — on an error too, so a later call resumes there with
// no job lost or seen twice. When a response names its successor in a Link
// header, that page is fetched while this one is decoded and visited:
// exactly one request runs ahead. A full page without the header (an older
// server) is followed once it is decoded.
func (c *Client) StreamJobs(ctx context.Context, after string, visit func([]Job) error) (cursor string, err error) {
	type fetched struct {
		buf  *bytes.Buffer
		next string // the Link header's cursor, "" without one
		err  error
	}
	ctx, cancel := context.WithCancel(ctx)
	get := func(from string) fetched {
		buf, h, err := c.fetch(ctx, http.MethodGet, jobsPath(from, jobsPageSize), nil)
		return fetched{buf, nextCursor(h), err}
	}
	var ahead chan fetched // the request in flight, nil without one
	defer func() {
		cancel()
		if ahead != nil {
			if f := <-ahead; f.buf != nil {
				wireBufs.Put(f.buf)
			}
		}
	}()
	cursor = after
	cur := get(cursor)
	for {
		if cur.err != nil {
			return cursor, cur.err
		}
		if cur.next != "" {
			ahead = make(chan fetched, 1)
			go func(from string) { ahead <- get(from) }(cur.next)
		}
		var page []Job
		if err = decodeResponse(cur.buf, &page); err != nil {
			return cursor, err
		}
		if err = visit(page); err != nil {
			return cursor, err
		}
		if len(page) > 0 {
			cursor = page[len(page)-1].ID
		}
		switch {
		case ahead != nil:
			cur, ahead = <-ahead, nil
		case len(page) == jobsPageSize:
			cur = get(cursor)
		default:
			return cursor, nil
		}
	}
}

// nextCursor returns the `after` of the page a response's Link header
// names as rel="next" (RFC 8288), "" when it names none.
func nextCursor(h http.Header) string {
	for _, link := range h.Values("Link") {
		target, params, _ := strings.Cut(strings.TrimPrefix(link, "<"), ">")
		if u, err := url.Parse(target); err == nil && strings.Contains(params, `rel="next"`) {
			return u.Query().Get("after")
		}
	}
	return ""
}

func jobsPath(after string, limit int) string {
	q := url.Values{}
	q.Set("limit", strconv.Itoa(limit))
	if after != "" {
		q.Set("after", after)
	}
	return "/jobs?" + q.Encode()
}

// JobsPage fetches one page of jobs after the given cursor (a job ID or
// sequence number; "" starts from the beginning). limit <= 0 asks for the
// server's maximum page.
func (c *Client) JobsPage(ctx context.Context, after string, limit int) ([]Job, error) {
	if limit <= 0 {
		limit = jobsPageSize
	}
	var jobs []Job
	err := c.do(ctx, http.MethodGet, jobsPath(after, limit), nil, &jobs)
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
// or the server becomes unreachable. poll <= 0 defaults to 250 ms. The
// answer to Submit may already carry the verdict — a job runs while its
// submit's fsync is in flight — so check its State before calling Await.
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
