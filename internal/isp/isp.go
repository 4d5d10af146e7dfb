// Package isp models the five U.S. cellular ISPs of the paper's
// in-the-wild evaluation (§5, Table 1) as throttling profiles driven
// through the simulator. wehey.SimSession replays against a profile, so a
// Table 1 test is one wehey.Localizer run over it.
//
// ISP1–ISP4 implement always-on per-client throttling at their plan rates
// ("video streaming at DVD quality"), differing in rate, queue depth
// (policing vs shaping), RTT, and how much competing traffic perturbs the
// client's throughput. ISP5 implements the conditional throttling the
// paper hypothesizes (Figure 4): a fixed 2.5 Mbit/s policer that activates
// only once the client has pulled enough bytes — a criterion the
// simultaneous replay meets much sooner, which breaks the throughput
// comparison and reproduces the 16% localization rate.
package isp

import (
	"math/rand"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/netsim"
)

// Profile describes one ISP's differentiation behaviour.
type Profile struct {
	Name string
	// PlanRate is the per-client throttling rate in bits/s.
	PlanRate float64
	// QueueFactor sizes the TBF queue as a multiple of the burst
	// (0 = pure policer; ~1 = shaper).
	QueueFactor float64
	// RTT is the client's typical base RTT on this network.
	RTT time.Duration
	// UnthrottledRate is the natural rate of a video replay when the
	// throttle is not (yet) limiting — the app-limited TCP rate.
	UnthrottledRate float64
	// NoiseBgRate adds competing (non-differentiated) traffic through the
	// client's radio link to perturb throughput between tests.
	NoiseBgRate float64
	// LinkRate bounds the client's radio link (0 = unconstrained).
	LinkRate float64
	// TriggerRate, when positive, arms conditional throttling (ISP5): the
	// limiter activates once the client's received rate over TriggerWindow
	// exceeds the threshold. The effective threshold is redrawn per test
	// within ±TriggerJitter, reproducing the paper's "not at an easily
	// predictable moment": a simultaneous replay (≈2× the rate) crosses it
	// within seconds, a single replay much later or — when the jittered
	// threshold falls below the single-replay rate — right away.
	TriggerRate   float64
	TriggerWindow time.Duration
	TriggerJitter float64
	// TriggerBytes additionally activates the limiter after this many
	// cumulative bytes (the slow path that eventually throttles even a
	// below-threshold single replay).
	TriggerBytes int64
}

// FiveISPs returns the five evaluation profiles. Rates and RTTs follow the
// disclosed plans (2–8 Mbit/s "DVD/HD quality" tiers) and typical LTE RTTs;
// per-profile noise levels are calibrated so the Table 1 experiment
// reproduces the paper's success-rate ordering.
func FiveISPs() []Profile {
	return []Profile{
		{
			Name: "ISP1", PlanRate: 4e6, QueueFactor: 0, RTT: 55 * time.Millisecond,
			UnthrottledRate: 9e6, NoiseBgRate: 2.5e6, LinkRate: 12e6,
		},
		{
			Name: "ISP2", PlanRate: 2e6, QueueFactor: 0.25, RTT: 65 * time.Millisecond,
			UnthrottledRate: 8e6, NoiseBgRate: 2.5e6, LinkRate: 10e6,
		},
		{
			Name: "ISP3", PlanRate: 4e6, QueueFactor: 0.5, RTT: 45 * time.Millisecond,
			UnthrottledRate: 9e6, NoiseBgRate: 1.5e6, LinkRate: 14e6,
		},
		{
			Name: "ISP4", PlanRate: 6e6, QueueFactor: 1, RTT: 45 * time.Millisecond,
			UnthrottledRate: 10e6, NoiseBgRate: 1e6, LinkRate: 16e6,
		},
		{
			Name: "ISP5", PlanRate: 2.5e6, QueueFactor: 0, RTT: 50 * time.Millisecond,
			UnthrottledRate: 9e6, NoiseBgRate: 1e6, LinkRate: 25e6,
			// The byte budget binds a single replay roughly halfway through
			// a test (Figure 4: throttling at ~22 s of a ~45 s replay); the
			// rate criterion trips the simultaneous replay within seconds.
			TriggerRate: 11.5e6, TriggerWindow: 2 * time.Second, TriggerJitter: 0.3,
			TriggerBytes: 11e6,
		},
	}
}

// ReplayOutcome carries one replay's client-side and path measurements.
type ReplayOutcome struct {
	Throughput   measure.Throughput
	Measurements measure.Path
	Bytes        int64
}

// Trigger is the per-test instantiation of the conditional-throttling
// criterion; nil means always-on throttling.
type Trigger struct {
	rate   float64 // bits/s over window
	window time.Duration
	bytes  int64
}

// DrawTrigger instantiates the profile's conditional-throttling criterion
// for one test (the threshold jitters test to test); nil for always-on
// profiles.
func (p Profile) DrawTrigger(rng *rand.Rand) *Trigger {
	if p.TriggerRate <= 0 && p.TriggerBytes <= 0 {
		return nil
	}
	t := &Trigger{rate: p.TriggerRate, window: p.TriggerWindow, bytes: p.TriggerBytes}
	if t.window <= 0 {
		t.window = 2 * time.Second
	}
	if t.rate > 0 && p.TriggerJitter > 0 {
		t.rate *= 1 + p.TriggerJitter*(2*rng.Float64()-1)
	}
	return t
}

// triggerState tracks a client's received traffic against a trigger using
// a ring of sub-window buckets.
type triggerState struct {
	trig    *Trigger
	buckets [8]int64
	bucket  time.Duration // bucket width
	lastIdx int64
	total   int64
}

func newTriggerState(t *Trigger) *triggerState {
	return &triggerState{trig: t, bucket: t.window / 8}
}

// add records bytes received at time now and reports whether the criterion
// is now met.
func (ts *triggerState) add(now time.Duration, bytes int) bool {
	idx := int64(now / ts.bucket)
	// Zero buckets skipped since the last update.
	for i := ts.lastIdx + 1; i <= idx && i-ts.lastIdx <= int64(len(ts.buckets)); i++ {
		ts.buckets[i%int64(len(ts.buckets))] = 0
	}
	if idx > ts.lastIdx {
		ts.lastIdx = idx
	}
	ts.buckets[idx%int64(len(ts.buckets))] += int64(bytes)
	ts.total += int64(bytes)

	if ts.trig.bytes > 0 && ts.total >= ts.trig.bytes {
		return true
	}
	if ts.trig.rate > 0 {
		var sum int64
		for _, b := range ts.buckets {
			sum += b
		}
		if float64(sum)*8/ts.trig.window.Seconds() >= ts.trig.rate {
			return true
		}
	}
	return false
}

// Replays simulates n concurrent replays through the profile's per-client
// bottleneck and returns each flow's outcome.
func (p Profile) Replays(seed int64, dur time.Duration, trig *Trigger, n int, original bool) []ReplayOutcome {
	var eng netsim.Engine
	lim := &netsim.LimiterSpec{
		Rate:  p.PlanRate,
		Burst: netsim.BurstForRTT(p.PlanRate, p.RTT),
	}
	lim.Queue = int(p.QueueFactor * float64(lim.Burst))

	paths := make([]netsim.PathSpec, n)
	for i := range paths {
		paths[i] = netsim.PathSpec{RTT: p.RTT}
	}
	sc := netsim.NewScenario(&eng, seed, netsim.CommonSpec{
		Rate:           p.LinkRate,
		Limiter:        lim,
		BgRate:         p.NoiseBgRate,
		BgDiffFraction: 0, // noise traffic is other apps: never throttled
	}, paths...)

	// Conditional throttling (ISP5): the limiter starts inactive and arms
	// once the client's received traffic meets the criterion.
	var ts *triggerState
	if trig != nil {
		sc.CommonLim.Active = false
		ts = newTriggerState(trig)
	}

	class := netsim.ClassDifferentiated
	if !original {
		class = netsim.ClassDefault
	}
	flows := make([]*netsim.TCPFlow, n)
	for i := range flows {
		cfg := netsim.TCPConfig{
			Pacing:  true,
			Class:   class,
			AppRate: p.UnthrottledRate,
			Stop:    dur,
		}
		f := netsim.NewTCPFlow(&eng, i+1, cfg, sc.Entry(i), sc.BackDelay(i))
		flows[i] = f
		rcv := f.Receiver()
		if ts != nil {
			sc.Register(i+1, netsim.HopFunc(func(pkt *netsim.Packet) {
				if !sc.CommonLim.Active && ts.add(eng.Now(), pkt.Size) {
					sc.CommonLim.Active = true
				}
				rcv.Send(pkt)
			}))
		} else {
			sc.Register(i+1, rcv)
		}
		f.Start(0)
	}
	sc.StartBackground(0, dur)
	eng.Run(dur + 2*time.Second)

	out := make([]ReplayOutcome, n)
	for i, f := range flows {
		out[i] = ReplayOutcome{
			Throughput:   measure.WeHeThroughput(f.Deliveries(0), 0, dur),
			Measurements: f.Measurements(0, dur, p.RTT),
			Bytes:        f.DeliveredBytes(),
		}
	}
	return out
}
