package wehey

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/nal-epfl/wehey/internal/testbed"
	"github.com/nal-epfl/wehey/internal/trace"
)

// TestbedConfig parameterizes a TestbedSession — a ReplaySession that
// performs every replay over real UDP sockets through an in-process
// differentiating middlebox (the loopback stand-in for the paper's
// wide-area testbed, §6.2).
type TestbedConfig struct {
	// App selects the trace (default "netflix"); the middlebox's DPI
	// throttles this app's SNI.
	App string
	// Rate is the middlebox's per-client throttling rate in bits/s
	// (default 3 Mbit/s).
	Rate float64
	// Delay is the middlebox's one-way propagation delay (default 10 ms).
	Delay time.Duration
	// Duration of each replay (default 5 s; keep short — this is real
	// wall-clock time).
	Duration time.Duration
	// Seed drives trace generation.
	Seed int64
}

func (c *TestbedConfig) fill() {
	if c.App == "" {
		c.App = "netflix"
	}
	if c.Rate <= 0 {
		c.Rate = 3e6
	}
	if c.Delay <= 0 {
		c.Delay = 10 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
}

// TestbedSession runs localization replays over real sockets. Each replay
// gets a fresh middlebox with identical configuration (sequential replays
// in the real system traverse the same device; a fresh instance resets
// bucket state exactly like an idle period would). Every replay runs under
// the session's context, so canceling it tears a replay down promptly
// instead of waiting out its duration.
type TestbedSession struct {
	ctx    context.Context
	cfg    TestbedConfig
	orig   *trace.Trace
	inv    *trace.Trace
	connID uint32
	mu     sync.Mutex
}

// NewTestbedSession creates a session whose replays run under ctx.
func NewTestbedSession(ctx context.Context, cfg TestbedConfig) (*TestbedSession, error) {
	cfg.fill()
	tr, err := trace.Generate(cfg.App, rand.New(rand.NewSource(cfg.Seed)), cfg.Duration+time.Second)
	if err != nil {
		return nil, fmt.Errorf("wehey: testbed session: %w", err)
	}
	return &TestbedSession{ctx: ctx, cfg: cfg, orig: tr, inv: trace.BitInvert(tr)}, nil
}

func (s *TestbedSession) middlebox() *testbed.Middlebox {
	return testbed.NewMiddlebox(testbed.MiddleboxConfig{
		Delay: s.cfg.Delay,
		SNIs:  testbed.SNIsForApps(s.cfg.App),
		Rate:  s.cfg.Rate,
		Burst: int(s.cfg.Rate / 8 * (2 * s.cfg.Delay).Seconds()),
	})
}

func (s *TestbedSession) nextConn() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.connID++
	return s.connID
}

func (s *TestbedSession) pick(original bool) *trace.Trace {
	if original {
		return s.orig
	}
	return s.inv
}

// SingleReplay implements ReplaySession over real sockets.
func (s *TestbedSession) SingleReplay(original bool) (PathReplay, error) {
	mb := s.middlebox()
	defer mb.Close()
	res, err := testbed.RunReliableReplay(s.ctx, mb, "p0",
		s.pick(original), s.cfg.Duration, s.nextConn())
	if err != nil {
		return PathReplay{}, err
	}
	m := res.Measurements
	return PathReplay{Throughput: res.Throughput, Measurements: &m}, nil
}

// SimultaneousReplay implements ReplaySession: both replays run truly
// concurrently through one shared middlebox (the per-client bottleneck).
func (s *TestbedSession) SimultaneousReplay(original bool) ([2]PathReplay, error) {
	mb := s.middlebox()
	defer mb.Close()
	tr := s.pick(original)

	var wg sync.WaitGroup
	var out [2]PathReplay
	errs := [2]error{}
	for i := 0; i < 2; i++ {
		i := i
		name := fmt.Sprintf("p%d", i+1)
		id := s.nextConn()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := testbed.RunReliableReplay(s.ctx, mb, name, tr, s.cfg.Duration, id)
			if err != nil {
				errs[i] = err
				return
			}
			m := res.Measurements
			out[i] = PathReplay{Throughput: res.Throughput, Measurements: &m}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

var _ ReplaySession = (*TestbedSession)(nil)
