// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 Table 1, Figures 2–7, Tables 3–5, and the §3.3 topology
// yield statistics), plus the ablation studies DESIGN.md calls out. Each
// experiment returns a Report that renders the same rows/series the paper
// presents; the benchmark harness in the repository root wraps them one
// bench per table/figure.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/netsim"
	"github.com/nal-epfl/wehey/internal/trace"
)

// LimiterPlacement selects where the rate limiter(s) sit in the Figure-1
// topology.
type LimiterPlacement int

const (
	// LimiterCommon places one limiter on the common link sequence l_c
	// (the FN experiments: a common bottleneck exists).
	LimiterCommon LimiterPlacement = iota
	// LimiterNonCommon places two identically configured limiters on l_1
	// and l_2 (the FP experiments: no common bottleneck exists).
	LimiterNonCommon
)

// SimSpec is one §6-style simulation experiment: a simultaneous replay of
// a trace pair through the Figure-1 topology with configured throttling.
type SimSpec struct {
	// App names the trace pair ("tcpbulk" for the TCP pair, or one of the
	// five UDP applications).
	App string
	// InputFactor is offered/rate at the limiter (Table 2: 1.3–2.5).
	InputFactor float64
	// QueueFactor sizes the TBF queue in bursts (Table 2: 0.25, 0.5, 1;
	// default 0.5, the bold value).
	QueueFactor float64
	// BgShare is the fraction of the background aggregate directed to the
	// limiter (Table 2: 25–75%).
	BgShare float64
	// BgAggregate is the total background rate the share is taken from
	// (the scaled-down CAIDA stand-in; default 32 Mbit/s).
	BgAggregate float64
	// RTT1, RTT2 are the two paths' base RTTs (default 35 ms — the
	// baseline of §6.3 and Tables 3–4, and close to the real RTTs of the
	// §6.2 wide-area testbed).
	RTT1, RTT2 time.Duration
	// Placement selects FN (common) vs FP (non-common) topologies.
	Placement LimiterPlacement
	// CongestionFactor, when positive, additionally congests the
	// non-common links: (replay+bg)/linkRate = CongestionFactor
	// (Table 4: 0.95, 1.05, 1.15).
	CongestionFactor float64
	// Duration of the replay (default 45 s, the paper's minimum).
	Duration time.Duration
	// Unmodified replays the traces without WeHeY's modifications
	// (no TCP pacing / no Poisson retiming) — the Figure 6 ablation.
	Unmodified bool
	// BBR runs the TCP replays under the BBR controller instead of Reno
	// (the §7 open question; see extension-bbr).
	BBR bool
	// BackgroundMode selects how the background aggregate is simulated:
	// BgModePacket (the default; every background packet is simulated) or
	// BgModeFluid (the hybrid mode of DESIGN.md §14 — background becomes
	// piecewise-constant fluid at each bottleneck, foreground stays
	// packet-granular). fill canonicalizes "" to BgModePacket so both
	// spellings share a cache key.
	BackgroundMode string
	// BgFlowRate is the per-flow application rate of the elastic background
	// flows in bits/s (default 8 Mbit/s). Full-rate scale runs lower it so
	// the paper's ~400-flow concurrency emerges from the same aggregate.
	BgFlowRate float64
	// Seed drives all randomness of this run.
	Seed int64
}

// BackgroundMode values for SimSpec and Config.
const (
	BgModePacket = "packet"
	BgModeFluid  = "fluid"
)

func (s *SimSpec) fill() {
	if s.InputFactor <= 0 {
		s.InputFactor = 1.5
	}
	if s.QueueFactor <= 0 {
		s.QueueFactor = 0.5
	}
	if s.BgShare <= 0 {
		s.BgShare = 0.5
	}
	if s.BgAggregate <= 0 {
		s.BgAggregate = 32e6
	}
	if s.RTT1 <= 0 {
		s.RTT1 = 35 * time.Millisecond
	}
	if s.RTT2 <= 0 {
		s.RTT2 = 35 * time.Millisecond
	}
	if s.Duration <= 0 {
		s.Duration = 45 * time.Second
	}
	if s.BackgroundMode == "" {
		s.BackgroundMode = BgModePacket
	}
	if s.BgFlowRate <= 0 {
		s.BgFlowRate = 8e6
	}
}

// TCPBulkApp is the SimSpec.App value selecting the TCP trace pair.
const TCPBulkApp = "tcpbulk"

// tcpReplayRate is the app rate of the TCP video replay (bits/s).
const tcpReplayRate = 4e6

// SimResult carries one experiment's measurements and summary metrics.
type SimResult struct {
	M1, M2      measure.Path
	RetransRate [2]float64       // TCP only
	QueueDelay  [2]time.Duration // avg−min RTT (TCP); TBF ground truth (UDP)
	LossRate    [2]float64
	// Throughput per path (WeHe 100-interval bins), for detection
	// accounting.
	Tput [2]measure.Throughput
	// GroundTruthDrops per location name.
	Drops map[string]int
	// Events is the total number of engine events the run processed — the
	// cost metric the hybrid fluid mode optimizes (DESIGN.md §14).
	Events int64
	// BgEvents is the subset of Events spent on fluid background
	// bookkeeping (rate updates, flow arrivals/departures, phase
	// crossings); 0 in packet mode.
	BgEvents int64
	// BgFlows is the peak concurrent elastic background flow population
	// (fluid mode only) — the paper-scale target is ~400.
	BgFlows int64
}

// Validate reports a spec no simulation can run: an App that is neither
// TCPBulkApp nor a UDP trace profile, or a Placement out of range. A TCP
// video profile (netflix, …) is refused: run replays every trace but
// TCPBulkApp open-loop over a UDP flow, so it would be simulated without
// TCP.
func (s SimSpec) Validate() error {
	if s.App != TCPBulkApp {
		p, err := trace.ProfileByName(s.App)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		if p.Transport != trace.UDP {
			return fmt.Errorf("experiments: app %q is a %v trace; simulate TCP as %q", s.App, p.Transport, TCPBulkApp)
		}
	}
	if s.Placement != LimiterCommon && s.Placement != LimiterNonCommon {
		return fmt.Errorf("experiments: unknown limiter placement %d", s.Placement)
	}
	return nil
}

// RunSim executes the simultaneous replay described by spec and returns
// the measurements Alg. 1 and the tomography baselines consume.
func RunSim(spec SimSpec) SimResult {
	return run(spec, 2, netsim.ClassDifferentiated)
}

// run builds the Figure-1 scenario of spec with n replay flows (1 or 2)
// of the given class and replays them; the result's second path is empty
// when n is 1. The common limiter is sized for the n replays, so
// InputFactor holds in every phase of a SpecSession.
func run(spec SimSpec, n int, class netsim.Class) SimResult {
	spec.fill()
	var eng netsim.Engine

	maxRTT := max(spec.RTT1, spec.RTT2)

	// Replay rates.
	var replayRate float64
	udpTraces := make([]*trace.Trace, n)
	isTCP := spec.App == TCPBulkApp
	if isTCP {
		replayRate = tcpReplayRate
	} else {
		for i := range udpTraces {
			tr, err := trace.Generate(spec.App, rand.New(rand.NewSource(spec.Seed+int64(i))), 12*time.Second)
			if err != nil {
				panic(err) // unknown app: callers Validate the spec first
			}
			tr = trace.ExtendTo(tr, spec.Duration)
			if !spec.Unmodified {
				tr = trace.PoissonRetime(rand.New(rand.NewSource(spec.Seed+100+int64(i))), tr)
			}
			udpTraces[i] = tr
		}
		replayRate = udpTraces[0].AvgRate(trace.ServerToClient)
	}

	// Background mix standing in for the CAIDA replay: the directed share
	// bgDiff splits into elastic TCP flows ("other users" of the throttled
	// service, replayed closed-loop as the paper replays CAIDA TCP
	// payloads from the application layer) and a rate-modulated open-loop
	// component whose variation drives the loss-rate trends.
	bgDiff := spec.BgShare * spec.BgAggregate
	openLoopBg := 0.5 * bgDiff
	elasticBg := bgDiff - openLoopBg

	common := netsim.CommonSpec{}
	paths := []netsim.PathSpec{
		{RTT: spec.RTT1},
		{RTT: spec.RTT2},
	}[:n]

	// InputFactor → bottleneck utilization. The paper's input/rate factor
	// describes the *natural* (pre-adaptation) input of a mostly TCP mix;
	// its realized average loss sits far below the open-loop 1−1/factor
	// (Fig. 3 targets ≈4% average loss). Our background keeps offering at
	// its natural rate (churn arrivals don't slow down), so applying the
	// factor directly would overshoot the paper's loss levels several-fold.
	// The affine map below lands the realized loss in the paper's range:
	// 1.3→mild (~2–4%), 2.5→severe (~15–25%).
	util := 0.8 + 0.2*spec.InputFactor
	switch spec.Placement {
	case LimiterNonCommon:
		// Identical limiters on l_1 and l_2, each fed by its own
		// independent background of the same composition.
		offered := replayRate + bgDiff
		rate := offered / util
		burst := netsim.BurstForRTT(rate, maxRTT)
		for i := range paths {
			paths[i].Limiter = &netsim.LimiterSpec{
				Rate: rate, Burst: burst, Queue: int(spec.QueueFactor * float64(burst)),
			}
			paths[i].BgRate = openLoopBg
			paths[i].BgDiffFraction = 1
			paths[i].BgModPeriod = 1500 * time.Millisecond
			paths[i].BgModSpread = 0.9
		}
	default: // LimiterCommon
		offered := float64(n)*replayRate + bgDiff
		rate := offered / util
		burst := netsim.BurstForRTT(rate, maxRTT)
		common.Limiter = &netsim.LimiterSpec{
			Rate: rate, Burst: burst, Queue: int(spec.QueueFactor * float64(burst)),
		}
		common.BgRate = openLoopBg
		common.BgDiffFraction = 1
		common.BgModPeriod = 1500 * time.Millisecond
		common.BgModSpread = 0.9
		// The elastic background flows reach l_c over their own paths
		// (other users converge at the shared bottleneck from elsewhere).
		paths = append(paths,
			netsim.PathSpec{RTT: 30 * time.Millisecond},
			netsim.PathSpec{RTT: 70 * time.Millisecond},
		)
	}

	// Congestion on the non-common links (Table 4): size each link so the
	// crossing traffic slightly exceeds (or approaches) its bandwidth.
	if spec.CongestionFactor > 0 {
		const crossBgRate = 6e6
		for i := range paths[:n] {
			// Steady class-default cross traffic congests the non-common
			// link; the knob is the link's sustained utilization
			// input/bandwidth. (Volatile or heavy-tailed cross traffic
			// would create strong *independent* loss trends on l_1/l_2 and
			// overstate the FN rate relative to the paper's setup.)
			paths[i].BgRate += crossBgRate
			//lint:ignore floateq exact sentinel: 1 is the literal untouched default
			if paths[i].BgDiffFraction == 1 {
				paths[i].BgDiffFraction = bgDiff / (bgDiff + crossBgRate)
			}
			paths[i].BgModPeriod = 2 * time.Second
			paths[i].BgModSpread = 0.25
			paths[i].Rate = (replayRate + paths[i].BgRate) / spec.CongestionFactor
		}
	}

	mode := netsim.BGPacket
	if spec.BackgroundMode == BgModeFluid {
		mode = netsim.BGFluid
	}
	sc := netsim.NewScenarioMode(&eng, spec.Seed, mode, common, paths...)

	// Elastic background: churning TCP flows (Poisson arrivals, bounded
	// Pareto sizes) — the flow-population variation is the primary source
	// of loss-rate trends at the bottleneck. In fluid mode the same
	// population dynamics drive per-flow fluid contributions instead.
	var churnPaths []int
	if spec.Placement == LimiterNonCommon {
		churnPaths = []int{0, 1}[:n] // share the replay paths' limiters
	} else {
		churnPaths = []int{n, n + 1} // dedicated background paths into l_c
	}
	churnCfg := netsim.ChurnConfig{
		MeanRate:    elasticBg,
		Class:       netsim.ClassDifferentiated,
		Stop:        spec.Duration,
		PerFlowRate: spec.BgFlowRate,
	}
	churnRng := rand.New(rand.NewSource(spec.Seed + 999))
	var fluidChurn *netsim.FluidChurn
	if mode == netsim.BGFluid {
		fc, err := netsim.NewFluidChurn(&eng, churnCfg, churnRng, sc, churnPaths)
		if err != nil {
			panic(err) // spec-derived config: invalid means a harness bug
		}
		fluidChurn = fc
		fc.Start(0)
	} else {
		churn, err := netsim.NewChurn(&eng, churnCfg, churnRng, sc, churnPaths)
		if err != nil {
			panic(err)
		}
		churn.Start(0)
	}

	res := SimResult{}
	ms := [2]*measure.Path{&res.M1, &res.M2}
	if isTCP {
		flows := make([]*netsim.TCPFlow, n)
		for i := range flows {
			cfg := netsim.TCPConfig{
				Pacing:  !spec.Unmodified,
				Class:   class,
				AppRate: replayRate,
				Stop:    spec.Duration,
			}
			if spec.BBR {
				cfg.CC = netsim.BBR
			}
			f := netsim.NewTCPFlow(&eng, i+1, cfg, sc.Entry(i), sc.BackDelay(i))
			flows[i] = f
			sc.Register(i+1, f.Receiver())
			f.Start(0)
		}
		sc.StartBackground(0, spec.Duration)
		res.Events = int64(eng.Run(spec.Duration + 2*time.Second))
		for i, f := range flows {
			*ms[i] = f.Measurements(0, spec.Duration, sc.RTT(i))
			res.RetransRate[i] = f.RetransmissionRate()
			res.QueueDelay[i] = f.AvgQueuingDelay()
			res.LossRate[i] = f.RetransmissionRate()
			res.Tput[i] = measure.WeHeThroughput(f.Deliveries(0), 0, spec.Duration)
		}
	} else {
		flows := make([]*netsim.UDPFlow, n)
		for i := range flows {
			f := netsim.NewUDPFlow(&eng, i+1, class, sc.Entry(i))
			flows[i] = f
			sc.Register(i+1, f.Receiver())
			f.Start(udpTraces[i], 0)
		}
		sc.StartBackground(0, spec.Duration)
		res.Events = int64(eng.Run(spec.Duration + 2*time.Second))
		for i, f := range flows {
			f.Finish(spec.Duration)
			*ms[i] = f.Measurements(0, spec.Duration, sc.RTT(i))
			res.LossRate[i] = f.LossRate()
			res.Tput[i] = measure.WeHeThroughput(f.Deliveries(0), 0, spec.Duration)
		}
	}
	if mode == netsim.BGFluid {
		// Settle the analytic state and fold fluid loss into the drop log
		// before it is published, then account the bookkeeping events that
		// replaced per-packet background work.
		sc.FinishFluid(spec.Duration + 2*time.Second)
		res.BgEvents = sc.FluidEvents()
		if fluidChurn != nil {
			res.BgEvents += fluidChurn.Events
			res.BgFlows = fluidChurn.MaxActive
		}
	}
	res.Drops = sc.DropLog
	return res
}
