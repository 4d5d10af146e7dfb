package experiments

import (
	"math/rand"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/netsim"
)

// SpecSession is a wehey.ReplaySession over the tables' Figure-1
// scenario: each replay phase is one run of spec's builder with a fresh
// seed. With the common placement it is the §6 collective-throttling
// case — other users' traffic of the throttled service shares the
// limiter with the replays, so the simultaneous aggregate does not add up
// to the single-replay throughput and only the loss-trend correlation can
// localize it.
type SpecSession struct {
	spec SimSpec
	rng  *rand.Rand
}

// NewSpecSession creates the session; rng draws each phase's seed.
func NewSpecSession(rng *rand.Rand, spec SimSpec) *SpecSession {
	return &SpecSession{spec: spec, rng: rng}
}

// phase runs n replays: the original trace in the differentiated class,
// its bit-inverted control in the default class.
func (s *SpecSession) phase(n int, original bool) (SimResult, error) {
	if err := s.spec.Validate(); err != nil {
		return SimResult{}, err
	}
	spec := s.spec
	spec.Seed = s.rng.Int63()
	class := netsim.ClassDifferentiated
	if !original {
		class = netsim.ClassDefault
	}
	return run(spec, n, class), nil
}

func pathReplay(tput measure.Throughput, m measure.Path) wehey.PathReplay {
	return wehey.PathReplay{Throughput: tput, Measurements: &m}
}

// SingleReplay implements wehey.ReplaySession.
func (s *SpecSession) SingleReplay(original bool) (wehey.PathReplay, error) {
	res, err := s.phase(1, original)
	if err != nil {
		return wehey.PathReplay{}, err
	}
	return pathReplay(res.Tput[0], res.M1), nil
}

// SimultaneousReplay implements wehey.ReplaySession.
func (s *SpecSession) SimultaneousReplay(original bool) ([2]wehey.PathReplay, error) {
	res, err := s.phase(2, original)
	if err != nil {
		return [2]wehey.PathReplay{}, err
	}
	return [2]wehey.PathReplay{pathReplay(res.Tput[0], res.M1), pathReplay(res.Tput[1], res.M2)}, nil
}
