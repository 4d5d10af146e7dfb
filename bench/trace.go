package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
)

// span is one traced interval. Spans are recorded only from this
// directory, around calls into the layers' public functions (and from job
// timestamps the service already publishes); nothing inside internal/ is
// instrumented. Times are nanoseconds since the tracer started.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`  // index of the causing span, -1 for a root
	Session int    `json:"session"` // spans of one operation share it
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// "tracing off": callers branch on it once per operation and take the
// untraced path, so the end-to-end numbers never pay for it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: clock.Now()} }

// begin opens a span now and returns its index.
func (t *tracer) begin(name string, parent, session int) int {
	now := int64(clock.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Session: session})
	return len(t.spans) - 1
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(clock.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// add records a span from two timestamps taken elsewhere (a request's due
// time, a job's StartedAt/FinishedAt).
func (t *tracer) add(name string, start, end time.Time, parent, session int) int {
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Parent: parent, Session: session,
	})
	return len(t.spans) - 1
}

// patch sets the interval of a span opened as a placeholder.
func (t *tracer) patch(id int, start, end time.Time) {
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Start, t.spans[id].End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf is the module a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its direct children (children are
// clipped to the parent, and overlapping children are not subtracted
// twice). Unclosed spans count as empty.
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) || s.End < s.Start {
			continue
		}
		p := spans[s.Parent]
		a, b := s.Start, s.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			if v.a > hi {
				hi = v.a
			}
			covered += v.b - hi
			hi = v.b
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerReport sums self time per layer and relates it to the summed
// duration of the root spans (one per trial/session/cycle). share is the
// part of that root time the non-root layers' self times account for —
// what is left is the benchmark's own glue inside the roots.
type layerReport struct {
	SelfByLayer map[string]float64 // seconds
	RootTotal   float64            // seconds
	Share       float64
}

func reportLayers(spans []span) layerReport {
	self := selfTimes(spans)
	rep := layerReport{SelfByLayer: make(map[string]float64)}
	var rootSelf float64
	for i, s := range spans {
		sec := float64(self[i]) / 1e9
		if s.Parent < 0 {
			if s.End > s.Start {
				rep.RootTotal += float64(s.End-s.Start) / 1e9
			}
			rootSelf += sec
		}
		rep.SelfByLayer[layerOf(s.Name)] += sec
	}
	if rep.RootTotal > 0 {
		rep.Share = 1 - rootSelf/rep.RootTotal
	}
	return rep
}

// writeTrace dumps the spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
