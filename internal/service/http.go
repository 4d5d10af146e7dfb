package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// The admin plane is a plain net/http JSON API over the scheduler:
//
//	GET    /healthz           -> {"status":"ok"}
//	POST   /jobs              -> submit a Spec, returns the Job snapshot (201)
//	POST   /jobs:batch        -> submit many Specs in one round-trip (201)
//	POST   /jobs/status:batch -> snapshot many jobs by ID in one round-trip
//	GET    /jobs              -> list jobs in submission order, paged
//	                             (?after=<id|seq>&limit=<n>, n capped at 1000)
//	GET    /jobs/{id}         -> one job
//	DELETE /jobs/{id}         -> cancel (idempotent on terminal jobs)
//	GET    /metrics           -> Metrics counter snapshot
//
// Errors travel as {"error": "..."} with the mapped status code.
//
// A batch submission is all-or-nothing: every spec validates and the
// whole batch rides one journal group commit, or nothing is admitted.
// /jobs responses are plain arrays capped at the page limit; clients page
// by passing the last seen job ID as `after` until a short page arrives. A
// full page says so ahead of its body: `Link: </jobs?after=<last
// id>&limit=<n>>; rel="next"` (RFC 8288), which Client.StreamJobs follows
// while it still decodes the page.

// ListLimitMax caps one GET /jobs page. It doubles as the default, so a
// bare GET /jobs on a huge campaign returns a bounded page instead of
// buffering the full set. Exported so streaming consumers (the fleet
// follower) can recognize a short — therefore final — page.
const ListLimitMax = 1000

const listLimitMax = ListLimitMax

// BatchRequest is the POST /jobs:batch body.
type BatchRequest struct {
	Specs []Spec `json:"specs"`
}

// BatchStatusRequest is the POST /jobs/status:batch body.
type BatchStatusRequest struct {
	IDs []string `json:"ids"`
}

// BatchStatusResponse answers a status batch: snapshots for the IDs that
// exist, and the IDs that do not.
type BatchStatusResponse struct {
	Jobs    []Job    `json:"jobs"`
	Missing []string `json:"missing,omitempty"`
}

// Handler returns the admin-plane handler for a scheduler.
func Handler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := readBody(w, r, &spec); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		job, err := s.Submit(spec)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, job)
	})
	mux.HandleFunc("POST /jobs:batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := readBody(w, r, &req); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if len(req.Specs) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("service: batch has no specs"))
			return
		}
		jobs, err := s.SubmitBatch(req.Specs)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, jobs)
	})
	mux.HandleFunc("POST /jobs/status:batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchStatusRequest
		if err := readBody(w, r, &req); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		jobs, missing := s.GetBatch(req.IDs)
		writeJSON(w, http.StatusOK, BatchStatusResponse{Jobs: jobs, Missing: missing})
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		afterSeq, err := parseAfter(q.Get("after"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		limit := listLimitMax
		if lv := q.Get("limit"); lv != "" {
			limit, err = strconv.Atoi(lv)
			if err != nil || limit < 1 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("service: limit must be a positive integer, got %q", lv))
				return
			}
			if limit > listLimitMax {
				limit = listLimitMax
			}
		}
		page := s.ListPage(afterSeq, limit)
		if len(page) == limit { // full: more may follow, and where is known before the page is read
			w.Header().Set("Link", fmt.Sprintf(`</jobs?after=%s&limit=%d>; rel="next"`, page[limit-1].ID, limit))
		}
		writeJSON(w, http.StatusOK, page)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	return mux
}

// parseAfter resolves the /jobs `after` cursor: empty (start), a job ID
// like "j000042", or a bare sequence number. Both forms name the same
// ordering because IDs are minted from sequence numbers.
func parseAfter(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	digits := v
	if digits[0] == 'j' {
		digits = digits[1:]
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("service: after must be a job ID or sequence number, got %q", v)
	}
	return seq, nil
}

// maxBodyBytes bounds a POST body: about 50 batches of 500 specs.
const maxBodyBytes = 8 << 20

// readBody reads a POST body of at most maxBodyBytes and decodes it into
// v, a pointer to a zero value.
func readBody(w http.ResponseWriter, r *http.Request, v any) error {
	buf := wireBufs.Get().(*bytes.Buffer)
	defer wireBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return err
	}
	return decodeWire(buf, v)
}

// statusFor maps request and scheduler errors onto HTTP statuses: a body
// over maxBodyBytes is too large, a failed journal write or fsync is the
// server's fault, anything unrecognized is a bad spec.
func statusFor(err error) int {
	var tooLong *http.MaxBytesError
	switch {
	case errors.As(err, &tooLong):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBatchTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, new(journalError)):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// wireBufs recycles the buffers a Job-bearing response is encoded into on
// the server and read into on the client: a full page is half a megabyte,
// and allocating it anew for every page is most of what the garbage
// collector would have to do during a catch-up.
var wireBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers with v as JSON and a newline, as json.Encoder writes
// it; the Job-bearing responses take the wire codec's path to the same
// bytes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed response write leaves nothing to report to.
	buf := wireBufs.Get().(*bytes.Buffer)
	defer wireBufs.Put(buf)
	buf.Reset()
	if b, ok := appendWire(buf.AvailableBuffer(), v); ok {
		buf.Write(append(b, '\n'))
		w.Write(buf.Bytes())
		return
	}
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
