// Package service is WeHeY's measurement-campaign layer: a long-running,
// job-oriented scheduler that accepts detection+localization jobs over an
// HTTP admin plane, schedules them against per-resource concurrency
// tokens, runs them on a worker pool with deadlines and seeded-backoff
// retries, and journals every state change so a restarted server resumes
// an interrupted campaign without losing or re-running jobs.
//
// The paper's deployment constraint drives the scheduler's core rule: a
// localization session replays *simultaneously* through one server pair
// (p1, p2), so a server pair is a schedulable resource — two jobs naming
// the same pair must never overlap (§3.4). Jobs declare their pair and the
// scheduler serializes on it with a token per pair.
//
// Determinism invariants (DESIGN.md §7) hold inside the service layer even
// though it supervises real-time work: all time flows through an injected
// clock.Clock (tests use clock.Manual and run instantly) and all
// randomness — retry jitter, backend trace generation — comes from per-job
// generators seeded by the job spec. The package is inside the walltime
// and detrand lint scopes; a stray time.Now or global rand call is a
// build-gating finding.
//
// Two backends ship with the package: "sim" runs a netsim trial through
// the experiments/simcache path (repeat submissions of one spec hit the
// cache — visible in /metrics) and "testbed" drives a full real-socket
// detection+localization session through internal/testbed.
package service

import (
	"errors"
	"fmt"
	"time"
)

// State is a job's position in the lifecycle state machine:
//
//	queued ──► running ──► done
//	  ▲           │  │
//	  │           │  ├──► failed    (attempts exhausted)
//	  └─ wait-retry ◄┘  └─► canceled (user cancel, incl. while queued)
//
// Only done, failed, and canceled are terminal and journaled; a job that
// is queued, running, or waiting for a retry when the process dies is
// re-queued on recovery.
type State string

const (
	// StateQueued: admitted, waiting for a worker and (if the job names a
	// server pair) for that pair's token.
	StateQueued State = "queued"
	// StateRunning: an attempt is executing on a worker.
	StateRunning State = "running"
	// StateWaitRetry: the last attempt failed; the retry backoff timer is
	// pending.
	StateWaitRetry State = "wait-retry"
	// StateDone: the job produced a result.
	StateDone State = "done"
	// StateFailed: every attempt failed; Error holds the last failure.
	StateFailed State = "failed"
	// StateCanceled: canceled by the operator before completion.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Backend names used by the stock registry.
const (
	// BackendSim runs a netsim trial via experiments (+ simcache).
	BackendSim = "sim"
	// BackendTestbed runs a real-socket session via internal/testbed.
	BackendTestbed = "testbed"
	// BackendNull completes instantly with a fixed result. It exists to
	// load-test the control plane itself — admission, journal, scheduler,
	// HTTP — with the measurement cost zeroed out.
	BackendNull = "null"
)

// Spec describes one measurement job. It is immutable after submission
// and round-trips through the journal and the admin plane as JSON.
type Spec struct {
	// Backend selects the execution substrate ("sim" or "testbed").
	Backend string `json:"backend"`
	// Priority orders the queue: higher runs first; ties run in
	// submission order.
	Priority int `json:"priority,omitempty"`
	// ServerPair names the replay-server pair the job occupies for its
	// whole run. Jobs sharing a pair are serialized (the paper's
	// simultaneous-replay constraint); "" means no pair constraint.
	ServerPair string `json:"server_pair,omitempty"`
	// Seed drives every random draw the job makes: backend trace
	// generation, detector subsampling, and the scheduler's retry
	// jitter. Two submissions with identical specs behave identically.
	Seed int64 `json:"seed"`
	// Deadline bounds one attempt (0 = the scheduler's default). An
	// attempt that overruns is canceled and counts as a failure.
	Deadline time.Duration `json:"deadline,omitempty"`
	// MaxAttempts caps total executions including the first
	// (0 = the scheduler's default).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Sim parameterizes the "sim" backend.
	Sim *SimJob `json:"sim,omitempty"`
	// Testbed parameterizes the "testbed" backend.
	Testbed *TestbedJob `json:"testbed,omitempty"`
	// Fleet attributes the job to a fleet-inference session (optional).
	// The service schedules and runs the job exactly as without it; the
	// aggregation layer (internal/fleet, wehey-map) reads it back from the
	// job stream to credit the result to the right network segment.
	Fleet *FleetMeta `json:"fleet,omitempty"`
}

// FleetMeta ties a job to its position in a fleet campaign: which planned
// session it is and which access ISP / server site the session runs
// through. It is opaque to the scheduler and backends.
type FleetMeta struct {
	// Campaign names the campaign the session belongs to.
	Campaign string `json:"campaign,omitempty"`
	// Session is the session's index in the campaign plan.
	Session int `json:"session"`
	// ISP is the access ISP index the session runs through.
	ISP int `json:"isp"`
	// Server is the server-site index the session measures against.
	Server int `json:"server"`
}

// SimJob parameterizes a simulation-backed localization trial (a SimSpec
// subset; the spec's Seed supplies the trial seed).
type SimJob struct {
	// App is the trace pair ("tcpbulk" or a UDP application); default
	// tcpbulk.
	App string `json:"app,omitempty"`
	// InputFactor is offered/rate at the limiter (default 1.5).
	InputFactor float64 `json:"input_factor,omitempty"`
	// QueueFactor sizes the TBF queue in bursts (default 0.5).
	QueueFactor float64 `json:"queue_factor,omitempty"`
	// BgShare is the background share through the limiter (default 0.5).
	BgShare float64 `json:"bg_share,omitempty"`
	// Placement is "common" (FN topology, default) or "noncommon" (FP).
	Placement string `json:"placement,omitempty"`
	// Duration of the simulated replay (default 45s, experiments.SimSpec's
	// and the campaigns': shorter replays leave the loss-trend detector
	// too few intervals to localize a shared limiter).
	Duration time.Duration `json:"duration,omitempty"`
}

// TestbedJob parameterizes a real-socket localization session. The
// session's T_diff is a synthetic cellular history seeded by the job
// (wehey.CellularTDiff), so the throughput comparison runs.
type TestbedJob struct {
	// App selects the replayed trace and the SNI the middlebox DPI
	// throttles (default "netflix").
	App string `json:"app,omitempty"`
	// Rate is the middlebox throttling rate in bits/s (default 3 Mbit/s).
	Rate float64 `json:"rate,omitempty"`
	// Delay is the middlebox one-way propagation delay (default 10 ms).
	// It also sizes the limiter's bucket (rate × 2·Delay): at 5 ms that
	// is 2.5 packets, and the simultaneous replays lose to it.
	Delay time.Duration `json:"delay,omitempty"`
	// Duration of each replay (default 500 ms; this is wall-clock time).
	Duration time.Duration `json:"duration,omitempty"`
}

// Result is what a completed job reports back through the admin plane.
type Result struct {
	// Backend echoes the substrate that produced the result.
	Backend string `json:"backend"`
	// WeHeDetected reports WeHe's end-to-end differentiation verdict.
	// A sim trial is throttled by construction, so it is always true
	// there.
	WeHeDetected bool `json:"wehe_detected"`
	// Confirmed reports differentiation on both simultaneous paths;
	// always true for a sim trial, for the same reason.
	Confirmed bool `json:"confirmed"`
	// LocalizedToISP is the headline localization answer.
	LocalizedToISP bool `json:"localized_to_isp"`
	// Evidence names the detector's evidence class.
	Evidence string `json:"evidence"`
	// LossRates are the two paths' measured loss rates.
	LossRates [2]float64 `json:"loss_rates"`
	// Detail is a one-line summary: wehey.Verdict.String for every
	// backend but null.
	Detail string `json:"detail,omitempty"`
}

// Job is the externally visible snapshot of one job. The scheduler hands
// out copies; mutating a snapshot has no effect.
type Job struct {
	// ID is the scheduler-assigned identifier ("j000001", ...).
	ID string `json:"id"`
	// Seq is the submission sequence number (monotonic across restarts).
	Seq uint64 `json:"seq"`
	// Spec is the submitted specification.
	Spec Spec `json:"spec"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Attempts counts executions started so far (this process).
	Attempts int `json:"attempts"`
	// Resumed marks a job recovered from the journal after a restart.
	Resumed bool `json:"resumed,omitempty"`
	// SubmittedAt, StartedAt, FinishedAt are scheduler-clock timestamps
	// (zero when the phase has not happened).
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	// RetryAt is when the next attempt unblocks (wait-retry only).
	RetryAt time.Time `json:"retry_at,omitempty"`
	// Error is the last failure message (failed, or retrying jobs).
	Error string `json:"error,omitempty"`
	// Result is the backend's output (done only).
	Result *Result `json:"result,omitempty"`
}

// Errors surfaced by the scheduler and mapped onto admin-plane statuses.
var (
	// ErrQueueFull: admission control rejected the submission.
	ErrQueueFull = errors.New("service: queue full")
	// ErrBatchTooLarge: the batch holds more jobs than the queue admits
	// even when empty, so unlike ErrQueueFull a retry cannot succeed.
	ErrBatchTooLarge = errors.New("service: batch exceeds the queue limit")
	// ErrClosed: the scheduler is shutting down.
	ErrClosed = errors.New("service: scheduler closed")
	// ErrNotFound: no job with that ID.
	ErrNotFound = errors.New("service: job not found")
	// ErrDeadline marks an attempt that overran its per-attempt deadline.
	ErrDeadline = errors.New("service: attempt deadline exceeded")
)

// Validate checks a spec is executable before admission.
func (s *Spec) Validate() error {
	switch s.Backend {
	case BackendSim:
		if s.Sim == nil {
			return fmt.Errorf("service: backend %q needs a sim payload", s.Backend)
		}
		if _, err := simSpecOf(*s); err != nil {
			return err
		}
	case BackendTestbed:
		if s.Testbed == nil {
			return fmt.Errorf("service: backend %q needs a testbed payload", s.Backend)
		}
	case "":
		return errors.New("service: spec has no backend")
	}
	if s.Deadline < 0 {
		return errors.New("service: negative deadline")
	}
	if s.MaxAttempts < 0 {
		return errors.New("service: negative max attempts")
	}
	if f := s.Fleet; f != nil && (f.Session < 0 || f.ISP < 0 || f.Server < 0) {
		return errors.New("service: negative fleet session attribution")
	}
	return nil
}
