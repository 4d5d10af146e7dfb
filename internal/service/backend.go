package service

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/simcache"
)

// Backend executes one job attempt. Run must honor ctx: the scheduler
// cancels it on operator cancel, per-attempt deadline, and shutdown.
// Implementations must be safe for concurrent Run calls (the worker pool
// runs many attempts at once).
type Backend interface {
	Run(ctx context.Context, spec Spec) (*Result, error)
}

// SimBackend runs "sim" jobs: one netsim localization trial through the
// experiments/simcache path, so identical specs (including the seed)
// compute once and every repeat is a cache hit — the /metrics
// cache-hit-through counters make that visible.
type SimBackend struct {
	cache *experiments.SimCache
}

// NewSimBackend wraps the given cache (nil = a fresh in-memory cache).
func NewSimBackend(cache *experiments.SimCache) *SimBackend {
	if cache == nil {
		cache = experiments.NewSimCache()
	}
	return &SimBackend{cache: cache}
}

// CacheStats snapshots the underlying simulation cache counters.
func (b *SimBackend) CacheStats() simcache.Stats { return b.cache.Stats() }

// Run executes the trial and classifies the topology with the
// common-bottleneck detector (loss-trend correlation; a sim job has no
// historical T_diff). The simulation itself is not interruptible — it is
// a pure in-process computation — so ctx is checked around it: a canceled
// attempt never reports success.
func (b *SimBackend) Run(ctx context.Context, spec Spec) (*Result, error) {
	p := spec.Sim
	simSpec := experiments.SimSpec{
		App:         p.App,
		InputFactor: p.InputFactor,
		QueueFactor: p.QueueFactor,
		BgShare:     p.BgShare,
		Duration:    p.Duration,
		Seed:        spec.Seed,
	}
	if simSpec.App == "" {
		simSpec.App = experiments.TCPBulkApp
	}
	if simSpec.Duration <= 0 {
		simSpec.Duration = 3 * time.Second
	}
	placement := p.Placement
	switch placement {
	case "", "common":
		simSpec.Placement = experiments.LimiterCommon
		placement = "common"
	case "noncommon":
		simSpec.Placement = experiments.LimiterNonCommon
	default:
		return nil, fmt.Errorf("service: unknown sim placement %q", p.Placement)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The verdict path is shared with internal/fleet's direct harness
	// (experiments.Config.Verdict seeds its detector with
	// DetectSeed(spec.Seed) == jobSeed("sim-detect", spec.Seed)), so a
	// fleet campaign evaluated in-process and one driven through this
	// backend report bit-identical verdicts per spec.
	v, err := experiments.Config{Cache: b.cache}.Verdict(simSpec)
	if err != nil {
		return nil, fmt.Errorf("service: sim detection: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Result{
		Backend: BackendSim,
		// The trial starts from a throttled topology, so WeHe's end-to-end
		// verdict and the simultaneous confirmation hold by construction.
		WeHeDetected:   true,
		Confirmed:      true,
		LocalizedToISP: v.LocalizedToISP,
		Evidence:       v.Evidence,
		LossRates:      v.LossRate,
		Detail: fmt.Sprintf("sim %s placement=%s loss=%.3f/%.3f",
			simSpec.App, placement, v.LossRate[0], v.LossRate[1]),
	}, nil
}

// NullBackend runs "null" jobs: it returns a canned result immediately.
// With it installed, a job's end-to-end cost is pure control plane —
// admission, journal commit, scheduling, completion — which is exactly
// what the service benchmarks and the CI load phase want to measure.
type NullBackend struct{}

// Run completes instantly (still honoring a pre-canceled context).
func (NullBackend) Run(ctx context.Context, spec Spec) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Result{Backend: BackendNull, Detail: "null backend"}, nil
}

// TestbedBackend runs "testbed" jobs: a full WeHeY localization session
// (single replays, simultaneous replays, confirmation, common-bottleneck
// detection) over real UDP sockets through the in-process differentiating
// middlebox. Cancellation propagates into every replay via ctx.
type TestbedBackend struct{}

// Run executes one localization session. Its delay and replay defaults
// are shorter than the library's: a service job is one of many.
func (b *TestbedBackend) Run(ctx context.Context, spec Spec) (*Result, error) {
	p := spec.Testbed
	cfg := wehey.TestbedConfig{
		App: p.App, Rate: p.Rate, Delay: p.Delay, Duration: p.Duration, Seed: spec.Seed,
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 5 * time.Millisecond
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	sess, err := wehey.NewTestbedSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	loc := wehey.Localizer{
		Rand: rand.New(rand.NewSource(jobSeed("testbed-detect", spec.Seed))),
	}
	v, err := loc.Localize(sess, nil)
	if err != nil {
		// The localizer wraps the replay error; surface a ctx cancel as
		// such so the scheduler files the attempt correctly.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return &Result{
		Backend:        BackendTestbed,
		WeHeDetected:   v.WeHeDetected,
		Confirmed:      v.Confirmed,
		LocalizedToISP: v.LocalizedToISP,
		Evidence:       v.Evidence.String(),
		LossRates:      v.LossRates,
		Detail:         v.String(),
	}, nil
}
