package wehey

import (
	"math/rand"
	"time"

	"github.com/nal-epfl/wehey/internal/isp"
)

// SimSession is a ReplaySession backed by the discrete-event simulator and
// an ISP throttling profile (per-client throttling, the §5 scenario). Each
// replay runs in a fresh simulation, as the real system's sequential
// replays would.
type SimSession struct {
	Profile  isp.Profile
	Duration time.Duration
	// ExtraReplays adds concurrent replays to the simultaneous phase
	// beyond p1 and p2; they compete for the bottleneck but are not
	// returned. Table 1's sanity check sets it to 1: a third replay steals
	// share, so the throughput comparison must then not localize.
	ExtraReplays int
	rng          *rand.Rand
	trig         *isp.Trigger
}

// NewSimSession creates a session against the given profile. The
// conditional-throttling criterion (if the profile has one) is drawn once
// per session, as it would be fixed during one user test.
func NewSimSession(rng *rand.Rand, profile isp.Profile, duration time.Duration) *SimSession {
	if duration <= 0 {
		duration = 20 * time.Second
	}
	return &SimSession{
		Profile:  profile,
		Duration: duration,
		rng:      rng,
		trig:     profile.DrawTrigger(rng),
	}
}

// SingleReplay implements ReplaySession.
func (s *SimSession) SingleReplay(original bool) (PathReplay, error) {
	out := s.Profile.Replays(s.rng.Int63(), s.Duration, s.trig, 1, original)
	m := out[0].Measurements
	return PathReplay{Throughput: out[0].Throughput, Measurements: &m}, nil
}

// SimultaneousReplay implements ReplaySession.
func (s *SimSession) SimultaneousReplay(original bool) ([2]PathReplay, error) {
	out := s.Profile.Replays(s.rng.Int63(), s.Duration, s.trig, 2+s.ExtraReplays, original)
	var pr [2]PathReplay
	for i := 0; i < 2; i++ {
		m := out[i].Measurements
		pr[i] = PathReplay{Throughput: out[i].Throughput, Measurements: &m}
	}
	return pr, nil
}
