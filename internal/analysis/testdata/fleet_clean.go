// Fixture for the fleet-layer determinism contract, checked as if under
// internal/fleet (inside DetScope, outside WalltimeAllow): the
// follower's sanctioned patterns — polling paced by an injected clock,
// posteriors as pure functions of integer counts — pass both walltime
// and detrand with nothing reported.
package fixture

import "time"

// timerIface mirrors internal/clock.Timer.
type timerIface interface {
	C() <-chan time.Time
	Stop() bool
}

// fleetClock mirrors the subset of internal/clock.Clock the follower
// uses: the only way the fleet layer waits.
type fleetClock interface {
	NewTimer(d time.Duration) timerIface
}

func pollWait(clk fleetClock, poll time.Duration) {
	// Injected clock timer: legal. time.Sleep or time.After here would be
	// a walltime finding.
	t := clk.NewTimer(poll)
	<-t.C()
}

func posteriorMean(pos, neg int64) float64 {
	// The posterior is a deterministic function of the verdict counts —
	// the fleet layer draws no randomness at all.
	return float64(1+pos) / float64(2+pos+neg)
}
