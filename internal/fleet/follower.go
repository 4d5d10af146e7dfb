package fleet

import (
	"context"
	"sort"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/service"
)

// Follower streams a running wehey-serve's job stream into an
// Aggregator: new jobs arrive through the seq-cursor paged GET /jobs
// (each page advances the cursor, so a million-job campaign is never
// re-listed; service.Client.StreamJobs fetches the next page while this
// one is absorbed), and jobs seen before they were terminal are
// re-polled in bulk through POST /jobs/status:batch until they finish.
// All waiting flows through the injected clock; a Manual clock drives
// tests instantly.
type Follower struct {
	// Client is the campaign-service client to follow.
	Client *service.Client
	// Campaign filters jobs: only those whose FleetMeta.Campaign matches
	// are credited ("" = every fleet-attributed job).
	Campaign string
	// Agg receives the verdicts (default: a fresh aggregator).
	Agg *Aggregator
	// Clock paces polling (default clock.System).
	Clock clock.Clock
	// Poll is the idle re-poll interval (default 200 ms).
	Poll time.Duration

	cursor  string          // last job ID handed back by GET /jobs
	pending map[string]bool // seen but not yet terminal

	stats FollowerStats
}

// FollowerStats counts the follower's control-plane work, surfaced by
// `wehey-map watch`.
type FollowerStats struct {
	// Pages is the number of GET /jobs pages fetched.
	Pages int64 `json:"pages"`
	// StatusBatches is the number of POST /jobs/status:batch calls.
	StatusBatches int64 `json:"status_batches"`
	// Credited counts verdicts folded into the aggregator.
	Credited int64 `json:"credited"`
	// Skipped counts terminal jobs not credited (failed/canceled, no
	// fleet attribution, or another campaign's).
	Skipped int64 `json:"skipped"`
	// Pending is the current count of seen-but-not-terminal jobs.
	Pending int64 `json:"pending"`
}

func (f *Follower) clk() clock.Clock {
	if f.Clock != nil {
		return f.Clock
	}
	return clock.System
}

func (f *Follower) init() {
	if f.Agg == nil {
		f.Agg = NewAggregator()
	}
	if f.pending == nil {
		f.pending = make(map[string]bool)
	}
}

// Stats snapshots the follower counters.
func (f *Follower) Stats() FollowerStats {
	s := f.stats
	s.Pending = int64(len(f.pending))
	return s
}

// absorb folds one job observation in: terminal jobs are credited (or
// skipped) exactly once; non-terminal ones go to the pending set.
func (f *Follower) absorb(j service.Job) {
	if !j.State.Terminal() {
		f.pending[j.ID] = true
		return
	}
	delete(f.pending, j.ID)
	if j.Spec.Fleet == nil || (f.Campaign != "" && j.Spec.Fleet.Campaign != f.Campaign) {
		f.stats.Skipped++
		return
	}
	if f.Agg.ObserveJob(j) {
		f.stats.Credited++
	} else {
		f.stats.Skipped++
	}
}

// Sync performs one pass: page every job published since the cursor,
// then re-poll the pending set in batches. It returns the number of jobs
// still pending.
func (f *Follower) Sync(ctx context.Context) (pending int, err error) {
	f.init()
	// The cursor comes back past every absorbed page, on an error too.
	f.cursor, err = f.Client.StreamJobs(ctx, f.cursor, func(page []service.Job) error {
		f.stats.Pages++
		for _, j := range page {
			f.absorb(j)
		}
		return nil
	})
	if err != nil {
		return len(f.pending), err
	}

	if len(f.pending) > 0 {
		ids := make([]string, 0, len(f.pending))
		for id := range f.pending {
			ids = append(ids, id)
		}
		sort.Strings(ids) // deterministic request order (and map-order lint)
		for len(ids) > 0 {
			n := len(ids)
			if n > service.ListLimitMax {
				n = service.ListLimitMax
			}
			jobs, missing, err := f.Client.StatusBatch(ctx, ids[:n])
			if err != nil {
				return len(f.pending), err
			}
			f.stats.StatusBatches++
			for _, j := range jobs {
				f.absorb(j)
			}
			// A job the server no longer knows will never terminate here.
			for _, id := range missing {
				delete(f.pending, id)
			}
			ids = ids[n:]
		}
	}
	return len(f.pending), nil
}

// Follow syncs until at least `total` verdicts have been credited and no
// jobs are pending (total <= 0: until the pending set drains after at
// least one pass), sleeping Poll between passes on the injected clock.
func (f *Follower) Follow(ctx context.Context, total int64) error {
	f.init()
	poll := f.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		pending, err := f.Sync(ctx)
		if err != nil {
			return err
		}
		if pending == 0 && (total <= 0 || f.stats.Credited+f.stats.Skipped >= total) {
			return nil
		}
		t := f.clk().NewTimer(poll)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C():
		}
	}
}

// FromJobs aggregates a one-shot job dump (`wehey-map infer` over a
// journal or a full listing): every terminal fleet job matching the
// campaign filter is credited. It returns the credited count.
func FromJobs(agg *Aggregator, campaign string, jobs []service.Job) int64 {
	var credited int64
	for _, j := range jobs {
		if !j.State.Terminal() || j.Spec.Fleet == nil {
			continue
		}
		if campaign != "" && j.Spec.Fleet.Campaign != campaign {
			continue
		}
		if agg.ObserveJob(j) {
			credited++
		}
	}
	return credited
}
