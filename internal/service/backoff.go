package service

import (
	"hash/fnv"
	"math/rand"
	"time"
)

// RetryPolicy shapes the retry schedule: capped exponential backoff with
// deterministic seeded jitter. The zero value means "use the defaults".
type RetryPolicy struct {
	// MaxAttempts caps total executions including the first (default 3).
	MaxAttempts int
	// BaseDelay is the wait after the first failure (default 500 ms).
	BaseDelay time.Duration
	// MaxDelay caps the delay — exponential growth and jitter included
	// (default 30 s). No schedule ever waits longer than this.
	MaxDelay time.Duration
	// JitterFrac spreads each delay uniformly over
	// [1-JitterFrac, 1+JitterFrac) (default 0.5). Zero jitter is
	// expressed with a negative value; 0 means "default".
	JitterFrac float64
}

// fill resolves defaults into concrete values.
func (p RetryPolicy) fill() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 500 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 30 * time.Second
	}
	// A negative JitterFrac stays negative, so filling twice (Options.fill,
	// then delay) keeps zero jitter; delay jitters only a positive one.
	//lint:ignore floateq exact sentinel: 0 is the literal unset default
	if p.JitterFrac == 0 {
		p.JitterFrac = 0.5
	}
	return p
}

// delay returns the backoff before attempt+1, where attempt counts the
// executions that have already failed (1 after the first failure). The
// jitter multiplier is drawn from rng — the job's seeded generator — so a
// re-submitted campaign reproduces its retry schedule exactly.
func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	p = p.fill()
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.JitterFrac > 0 {
		lo := 1 - p.JitterFrac
		d = time.Duration(float64(d) * (lo + 2*p.JitterFrac*rng.Float64()))
	}
	// MaxDelay is a hard cap: clamp again after jitter, or a delay already
	// at the cap jitters up to (1+JitterFrac)×MaxDelay. The rng draw above
	// is unconditional either way, so seeded retry schedules that stayed
	// below the cap are unchanged.
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// jobSeed derives the per-job generator seed from the spec seed and the
// job ID, so two jobs sharing a spec seed still jitter independently while
// staying reproducible across restarts (IDs are stable: they encode the
// journal sequence number).
func jobSeed(id string, specSeed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return specSeed ^ int64(h.Sum64())
}
