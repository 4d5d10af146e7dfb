package wehey

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/nal-epfl/wehey/internal/isp"
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/netsim"
	"github.com/nal-epfl/wehey/internal/trace"
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

// CollectiveConfig parameterizes a CollectiveSimSession: the §6 scenario
// where the ISP throttles a service collectively — the replays share the
// rate limiter with other users' traffic of the same service, so only the
// loss-trend correlation can localize it.
type CollectiveConfig struct {
	// BgDiffRate is the rate of other users' traffic of the throttled
	// service sharing the limiter (default 20 Mbit/s; the limiter input is
	// dominated by it, as in the paper's CAIDA-driven setup).
	BgDiffRate float64
	// InputFactor is offered/rate (Table 2: 1.3–2.5; default 1.5); it
	// determines the limiter's rate from the offered load.
	InputFactor float64
	// QueueFactor sizes the TBF queue as a multiple of the burst.
	QueueFactor float64
	// RTT1, RTT2 are the two paths' RTTs (default 35 ms).
	RTT1, RTT2 time.Duration
	// ReplayRate is each replay flow's app rate (default 5 Mbit/s;
	// ignored for UDP apps, whose trace sets the rate).
	ReplayRate float64
	// App selects a UDP application trace to replay instead of the TCP
	// stream ("" = TCP).
	App string
	// Duration of each replay (default 45 s, the paper's minimum).
	Duration time.Duration
}

func (c *CollectiveConfig) fill() {
	if c.BgDiffRate <= 0 {
		c.BgDiffRate = 20e6
	}
	if c.InputFactor <= 0 {
		c.InputFactor = 1.5
	}
	if c.RTT1 <= 0 {
		c.RTT1 = 35 * time.Millisecond
	}
	if c.RTT2 <= 0 {
		c.RTT2 = 35 * time.Millisecond
	}
	if c.ReplayRate <= 0 {
		c.ReplayRate = 5e6
	}
	if c.Duration <= 0 {
		c.Duration = 45 * time.Second
	}
}

// CollectiveSimSession is a ReplaySession for collective per-service
// throttling: background traffic of the targeted service (other users)
// shares the limiter with the replays, so the aggregate simultaneous
// throughput does not add up to the single-replay throughput and the
// detector falls through to loss-trend correlation.
type CollectiveSimSession struct {
	cfg CollectiveConfig
	rng *rand.Rand
}

// NewCollectiveSimSession creates the session.
func NewCollectiveSimSession(rng *rand.Rand, cfg CollectiveConfig) *CollectiveSimSession {
	cfg.fill()
	return &CollectiveSimSession{cfg: cfg, rng: rng}
}

// run executes n replays through the collective bottleneck.
func (s *CollectiveSimSession) run(n int, original bool) ([]PathReplay, error) {
	c := s.cfg
	var eng netsim.Engine
	rtt := c.RTT1
	if c.RTT2 > rtt {
		rtt = c.RTT2
	}
	// The differentiated-class input is dominated by other users' traffic
	// of the throttled service (the paper directs 25–75% of a CAIDA trace
	// through the limiter, tens of Mbit/s against ~10 Mbit/s of replays);
	// the limiter's rate is then set so offered/rate = InputFactor.
	bgDiff := c.BgDiffRate
	replayRate := c.ReplayRate
	if c.App != "" {
		if p, err := trace.ProfileByName(c.App); err == nil && p.FrameInterval > 0 {
			replayRate = float64(p.MeanFrameSize) * 8 / p.FrameInterval.Seconds()
		}
	}
	offered := bgDiff + float64(n)*replayRate
	rate := offered / c.InputFactor
	burst := netsim.BurstForRTT(rate, rtt)
	rtts := []time.Duration{c.RTT1, c.RTT2, c.RTT1}
	paths := make([]netsim.PathSpec, n)
	for i := range paths {
		paths[i] = netsim.PathSpec{RTT: rtts[i%len(rtts)]}
	}
	sc := netsim.NewScenario(&eng, s.rng.Int63(), netsim.CommonSpec{
		Limiter:        &netsim.LimiterSpec{Rate: rate, Burst: burst, Queue: int(c.QueueFactor * float64(burst))},
		BgRate:         bgDiff * 2,
		BgDiffFraction: 0.5,
		BgModPeriod:    time.Second, // trends at Alg. 1's analysis timescales
		BgModSpread:    0.7,
	}, paths...)

	class := netsim.ClassDifferentiated
	if !original {
		class = netsim.ClassDefault
	}
	sc.StartBackground(0, c.Duration)
	out := make([]PathReplay, n)

	if c.App != "" {
		// UDP replay: Poisson-retimed trace, client-side loss detection.
		flows := make([]*netsim.UDPFlow, n)
		for i := range flows {
			tr, err := trace.Generate(c.App, rand.New(rand.NewSource(s.rng.Int63())), 12*time.Second)
			if err != nil {
				return nil, fmt.Errorf("wehey: collective session: %w", err)
			}
			tr = trace.PoissonRetime(rand.New(rand.NewSource(s.rng.Int63())), trace.ExtendTo(tr, c.Duration))
			f := netsim.NewUDPFlow(&eng, i+1, class, sc.Entry(i))
			flows[i] = f
			sc.Register(i+1, f.Receiver())
			f.Start(tr, 0)
		}
		eng.Run(c.Duration + 2*time.Second)
		for i, f := range flows {
			f.Finish(c.Duration)
			m := f.Measurements(0, c.Duration, paths[i].RTT)
			out[i] = PathReplay{
				Throughput:   measure.WeHeThroughput(f.Deliveries(0), 0, c.Duration),
				Measurements: &m,
			}
		}
		return out, nil
	}

	flows := make([]*netsim.TCPFlow, n)
	for i := range flows {
		f := netsim.NewTCPFlow(&eng, i+1, netsim.TCPConfig{
			Pacing:  true,
			Class:   class,
			AppRate: c.ReplayRate,
			Stop:    c.Duration,
		}, sc.Entry(i), sc.BackDelay(i))
		flows[i] = f
		sc.Register(i+1, f.Receiver())
		f.Start(0)
	}
	eng.Run(c.Duration + 2*time.Second)

	for i, f := range flows {
		m := f.Measurements(0, c.Duration, paths[i].RTT)
		out[i] = PathReplay{
			Throughput:   measure.WeHeThroughput(f.Deliveries(0), 0, c.Duration),
			Measurements: &m,
		}
	}
	return out, nil
}

// SingleReplay implements ReplaySession.
func (s *CollectiveSimSession) SingleReplay(original bool) (PathReplay, error) {
	out, err := s.run(1, original)
	if err != nil {
		return PathReplay{}, err
	}
	return out[0], nil
}

// SimultaneousReplay implements ReplaySession.
func (s *CollectiveSimSession) SimultaneousReplay(original bool) ([2]PathReplay, error) {
	out, err := s.run(2, original)
	if err != nil {
		return [2]PathReplay{}, err
	}
	return [2]PathReplay{out[0], out[1]}, nil
}
