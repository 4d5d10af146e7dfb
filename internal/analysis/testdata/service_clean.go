// Fixture for the service-layer determinism contract, checked as if under
// internal/service (inside DetScope, outside WalltimeAllow): the
// sanctioned scheduler patterns — an injected clock and per-job seeded
// jitter — pass both walltime and detrand with nothing reported.
package fixture

import (
	"math/rand"
	"time"
)

// clockIface mirrors internal/clock.Clock: the only way the scheduler
// reads time.
type clockIface interface {
	Now() time.Time
	Since(t time.Time) time.Duration
}

func queueLatency(clk clockIface, enqueued time.Time) time.Duration {
	// Injected clock: legal. The same expression via package time would be
	// a walltime finding (see service_walltime.go).
	return clk.Since(enqueued)
}

func retryJitter(rng *rand.Rand, base time.Duration) time.Duration {
	// Per-job seeded generator: legal. The global source would be a
	// detrand finding (see service_detrand.go).
	return time.Duration(float64(base) * (0.5 + rng.Float64()))
}

func jobGenerator(seed int64) *rand.Rand {
	// Deterministic literal-derived seed: legal even inside DetScope.
	return rand.New(rand.NewSource(seed ^ 0x5eed))
}
