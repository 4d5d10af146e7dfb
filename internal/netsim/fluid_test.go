package netsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func near(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	diff := math.Abs(got - want)
	scale := math.Abs(want)
	if scale < 1 {
		scale = 1
	}
	if diff > relTol*scale {
		t.Errorf("%s = %v, want %v (rel tol %v)", name, got, want, relTol)
	}
}

// setIn changes a queue's inflow directly at an arbitrary synthetic time,
// bypassing SetSource's engine-clock advance — unit tests drive the
// integrator on their own timeline.
func setIn(f *FluidQueue, at time.Duration, bitsPerSec float64) {
	f.advance(at)
	f.in = bitsPerSec / 8
}

// TestFluidIntegratorPolicer checks the closed-form phases of a pure
// policer: token burn, then steady overflow loss.
func TestFluidIntegratorPolicer(t *testing.T) {
	var eng Engine
	// 8 Mbit/s service (1e6 B/s), 50 KB burst, no queue.
	q := newFluidQueue(&eng, 8e6, 50e3, 0)
	setIn(q, 0, 16e6) // 2e6 B/s offered: excess 1e6 B/s
	st := q.Stats(time.Second)
	// Tokens last 50e3/1e6 = 50 ms; the remaining 950 ms loses 1e6 B/s.
	near(t, "offered", st.OfferedBytes, 2e6, 1e-9)
	near(t, "dropped", st.DroppedBytes, 950e3, 1e-9)
	near(t, "backlog", st.BacklogBytes, 0, 1e-9)
	near(t, "tokens", st.TokenBytes, 0, 1e-9)
}

// TestFluidIntegratorShaper checks fill, saturation, drain, and token
// recovery of a finite-queue TBF.
func TestFluidIntegratorShaper(t *testing.T) {
	var eng Engine
	// 1e6 B/s service, 50 KB burst, 100 KB queue.
	q := newFluidQueue(&eng, 8e6, 50e3, 100e3)
	setIn(q, 0, 16e6) // 2e6 B/s
	// Phase walk: 50 ms token burn, 100 ms queue fill, then overflow at
	// 1e6 B/s for the remaining 850 ms.
	st := q.Stats(time.Second)
	near(t, "backlog@1s", st.BacklogBytes, 100e3, 1e-9)
	near(t, "dropped@1s", st.DroppedBytes, 850e3, 1e-9)

	// Inflow drops to 3.2 Mbit/s (0.4e6 B/s): backlog drains at 0.6e6 B/s
	// (empty after 166.7 ms), then tokens recover at 0.6e6 B/s to the
	// 50 KB cap.
	setIn(q, time.Second, 3.2e6)
	st = q.Stats(2 * time.Second)
	near(t, "backlog@2s", st.BacklogBytes, 0, 1e-9)
	near(t, "dropped@2s", st.DroppedBytes, 850e3, 1e-9)
	near(t, "tokens@2s", st.TokenBytes, 50e3, 1e-9)
}

// TestFluidIntegratorStepInvariance: integrating the same piecewise-
// constant inflow with fine steps or only at the change points must give
// identical state — the closed form is exact over any partition.
func TestFluidIntegratorStepInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var engA, engB Engine
	coarse := newFluidQueue(&engA, 10e6, 40e3, 80e3)
	fine := newFluidQueue(&engB, 10e6, 40e3, 80e3)

	now := time.Duration(0)
	for step := 0; step < 50; step++ {
		rate := rng.Float64() * 25e6 // swings across under- and overload
		setIn(coarse, now, rate)
		setIn(fine, now, rate)
		hold := time.Duration(1+rng.Intn(400)) * time.Millisecond
		// The fine queue advances in 17 unequal sub-steps.
		for k := 1; k <= 17; k++ {
			fine.advance(now + hold*time.Duration(k)/17)
		}
		now += hold
		coarse.advance(now)
		fine.advance(now)
	}
	near(t, "offered", fine.offered, coarse.offered, 1e-9)
	near(t, "dropped", fine.dropped, coarse.dropped, 1e-9)
	near(t, "backlog", fine.backlog, coarse.backlog, 1e-9)
	near(t, "tokens", fine.tokens, coarse.tokens, 1e-9)
}

// TestFluidIntegratorBlackhole: a zero-rate bucket passes the burst then
// loses everything, forming no backlog — mirroring the packet path's
// zero-rate TBF semantics.
func TestFluidIntegratorBlackhole(t *testing.T) {
	var eng Engine
	q := newFluidQueue(&eng, 0, 30e3, 50e3)
	setIn(q, 0, 8e6) // 1e6 B/s
	st := q.Stats(time.Second)
	near(t, "dropped", st.DroppedBytes, 970e3, 1e-9) // 30 ms of tokens, then loss
	near(t, "backlog", st.BacklogBytes, 0, 1e-9)
}

// TestTBFFluidForegroundExactness: with no fluid inflow at all, a
// fluid-engaged TBF must forward, delay, and drop a deterministic packet
// sequence exactly like the packet-mode TBF (modulo sub-microsecond event
// rounding) — foreground behavior is per-packet exact, not approximate.
func TestTBFFluidForegroundExactness(t *testing.T) {
	type delivery struct {
		at     time.Duration
		queued time.Duration
	}
	run := func(fluid bool) (deliveries []delivery, dropped int64) {
		var eng Engine
		var got []delivery
		sink := HopFunc(func(pkt *Packet) {
			got = append(got, delivery{at: eng.Now(), queued: pkt.QueuedFor})
			eng.FreePacket(pkt)
		})
		// 4 Mbit/s TBF, small burst, generous queue (the fluid backlog
		// excludes the token-covered prefix, so near-limit admission can
		// legitimately differ; a generous queue isolates timing equality).
		rl := NewRateLimiter(&eng, "tbf", 4e6, 3000, 1<<20, sink)
		if fluid {
			rl.Fluid()
		}
		// 1200-byte CBR at 8 Mbit/s for 100 packets: overload, pure shaping.
		for i := 0; i < 100; i++ {
			at := time.Duration(i) * 1200 * 8 * time.Microsecond / 8 // 1.2 ms spacing
			schedule(&eng, at, func() {
				pkt := eng.AllocPacket()
				pkt.Flow = 1
				pkt.Size = 1200
				pkt.Class = ClassDifferentiated
				rl.Send(pkt)
			})
		}
		eng.Run(10 * time.Second)
		return got, rl.Dropped
	}

	pkt, pktDrops := run(false)
	fl, flDrops := run(true)
	if len(pkt) != len(fl) || pktDrops != flDrops {
		t.Fatalf("packet mode delivered %d (dropped %d), fluid delivered %d (dropped %d)",
			len(pkt), pktDrops, len(fl), flDrops)
	}
	const slack = 2 * time.Microsecond // packet drain events round up by 1 ns per hop
	for i := range pkt {
		if d := pkt[i].at - fl[i].at; d < -slack || d > slack {
			t.Fatalf("delivery %d at %v (packet) vs %v (fluid)", i, pkt[i].at, fl[i].at)
		}
		if d := pkt[i].queued - fl[i].queued; d < -slack || d > slack {
			t.Fatalf("delivery %d queued %v (packet) vs %v (fluid)", i, pkt[i].queued, fl[i].queued)
		}
	}
}

// TestLinkFluidForegroundExactness mirrors the TBF test for a FIFO link.
func TestLinkFluidForegroundExactness(t *testing.T) {
	run := func(fluid bool) (times []time.Duration, dropped int64) {
		var eng Engine
		var got []time.Duration
		sink := HopFunc(func(pkt *Packet) {
			got = append(got, eng.Now())
			eng.FreePacket(pkt)
		})
		l := NewLink(&eng, "link", 10e6, 2*time.Millisecond, sink)
		l.QueueLimit = 1 << 20
		if fluid {
			l.Fluid()
		}
		for i := 0; i < 80; i++ {
			at := time.Duration(i) * 700 * time.Microsecond
			schedule(&eng, at, func() {
				pkt := eng.AllocPacket()
				pkt.Flow = 1
				pkt.Size = 1400
				rl := l // capture
				rl.Send(pkt)
			})
		}
		eng.Run(5 * time.Second)
		return got, l.Dropped
	}
	pkt, pktDrops := run(false)
	fl, flDrops := run(true)
	if len(pkt) != len(fl) || pktDrops != flDrops {
		t.Fatalf("packet delivered %d (dropped %d), fluid %d (%d)", len(pkt), pktDrops, len(fl), flDrops)
	}
	const slack = 2 * time.Microsecond
	for i := range pkt {
		if d := pkt[i] - fl[i]; d < -slack || d > slack {
			t.Fatalf("delivery %d at %v (packet) vs %v (fluid)", i, pkt[i], fl[i])
		}
	}
}

// TestFluidScenarioSmoke runs the full Figure-1 wiring in fluid mode:
// fluid loss must fold into the drop log under the packet-mode hop names,
// and the bookkeeping event count must be far below the per-packet count
// the same background would cost.
func TestFluidScenarioSmoke(t *testing.T) {
	var eng Engine
	spec := CommonSpec{
		Rate:           40e6,
		Limiter:        &LimiterSpec{Rate: 12e6, Burst: 60e3, Queue: 30e3},
		BgRate:         20e6,
		BgDiffFraction: 0.8,
	}
	sc := NewScenarioMode(&eng, 42, BGFluid, spec,
		PathSpec{RTT: 30 * time.Millisecond},
	)
	sc.StartBackground(0, 10*time.Second)
	events := eng.Run(12 * time.Second)
	sc.FinishFluid(12 * time.Second)

	if sc.DropLog["tbf_c"] == 0 {
		t.Error("fluid overload produced no folded drops at tbf_c")
	}
	if n := sc.FluidEvents(); n == 0 || n > 2000 {
		t.Errorf("fluid bookkeeping events = %d, want coarse-grained (0 < n <= 2000)", n)
	}
	// 20 Mbit/s of ~941-byte packets for 10 s would be ~265k packet events
	// at minimum; the whole fluid run must stay orders of magnitude under.
	if events > 20000 {
		t.Errorf("fluid-mode run processed %d events, want ~hundreds", events)
	}
}

// TestFluidChurnPopulation: the fluid churn's flow population must reach a
// steady state near MeanRate/PerFlowRate and zero out at Stop.
func TestFluidChurnPopulation(t *testing.T) {
	var eng Engine
	sc := NewScenarioMode(&eng, 3, BGFluid, CommonSpec{
		Limiter: &LimiterSpec{Rate: 50e6, Burst: 100e3, Queue: 100e3},
	}, PathSpec{RTT: 30 * time.Millisecond})
	cfg := ChurnConfig{
		MeanRate:    20e6,
		PerFlowRate: 200e3, // mean concurrency 100
		Stop:        60 * time.Second,
	}
	fc, err := NewFluidChurn(&eng, cfg, rand.New(rand.NewSource(5)), sc, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	fc.Start(0)
	eng.Run(70 * time.Second)

	if fc.MaxActive < 60 || fc.MaxActive > 220 {
		t.Errorf("peak population %d, want near 100", fc.MaxActive)
	}
	if fc.Active != 0 {
		t.Errorf("population %d after stop, want 0", fc.Active)
	}
	if fc.Events < 100 {
		t.Errorf("only %d churn events for ~hundreds of flows", fc.Events)
	}
	q := sc.FluidEntry(0)
	if st := q.Stats(eng.Now()); st.OfferedBytes == 0 {
		t.Error("churn fed no fluid into its target queue")
	}
}

// TestSourceConfigValidation is the regression test for the silently-dead
// source bug: invalid configs must be rejected with a typed *ConfigError
// naming the bad field, instead of constructing a zero-rate source.
func TestSourceConfigValidation(t *testing.T) {
	var eng Engine
	rng := rand.New(rand.NewSource(1))
	sc := NewScenario(&eng, 1, CommonSpec{}, PathSpec{RTT: 20 * time.Millisecond})

	bgCases := []struct {
		name  string
		cfg   BackgroundConfig
		field string
	}{
		{"zero rate", BackgroundConfig{Stop: time.Second}, "MeanRate"},
		{"negative rate", BackgroundConfig{MeanRate: -5e6, Stop: time.Second}, "MeanRate"},
		{"NaN rate", BackgroundConfig{MeanRate: math.NaN(), Stop: time.Second}, "MeanRate"},
		{"bad fraction", BackgroundConfig{MeanRate: 1e6, DiffFraction: 1.5, Stop: time.Second}, "DiffFraction"},
		{"no stop", BackgroundConfig{MeanRate: 1e6}, "Stop"},
	}
	for _, tc := range bgCases {
		_, err := NewBackground(&eng, tc.cfg, rng, Discard)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("background %s: err = %v, want *ConfigError on %s", tc.name, err, tc.field)
		}
		if _, err := NewFluidBackground(&eng, tc.cfg, rng, nil, nil); !errors.As(err, &ce) {
			t.Errorf("fluid background %s: err = %v, want *ConfigError", tc.name, err)
		}
	}

	churnCases := []struct {
		name  string
		cfg   ChurnConfig
		field string
	}{
		{"zero rate", ChurnConfig{Stop: time.Second}, "MeanRate"},
		{"negative min", ChurnConfig{MeanRate: 1e6, MinBytes: -1, Stop: time.Second}, "MinBytes"},
		{"min above max", ChurnConfig{MeanRate: 1e6, MinBytes: 5e6, MaxBytes: 1e6, Stop: time.Second}, "MinBytes"},
		{"negative alpha", ChurnConfig{MeanRate: 1e6, Alpha: -2, Stop: time.Second}, "Alpha"},
		{"no stop", ChurnConfig{MeanRate: 1e6}, "Stop"},
	}
	for _, tc := range churnCases {
		_, err := NewChurn(&eng, tc.cfg, rng, sc, []int{0})
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("churn %s: err = %v, want *ConfigError on %s", tc.name, err, tc.field)
		}
		if _, err := NewFluidChurn(&eng, tc.cfg, rng, sc, []int{0}); !errors.As(err, &ce) {
			t.Errorf("fluid churn %s: err = %v, want *ConfigError", tc.name, err)
		}
	}

	// Valid configs still construct.
	if _, err := NewBackground(&eng, BackgroundConfig{MeanRate: 1e6, Stop: time.Second}, rng, Discard); err != nil {
		t.Errorf("valid background rejected: %v", err)
	}
	if _, err := NewChurn(&eng, ChurnConfig{MeanRate: 1e6, Stop: time.Second}, rng, sc, []int{0}); err != nil {
		t.Errorf("valid churn rejected: %v", err)
	}
}
