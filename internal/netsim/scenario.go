package netsim

import (
	"fmt"
	"math/rand"
	"time"
)

// LimiterSpec configures a token-bucket rate limiter placed on a link
// sequence, following the paper's parameterization (Table 2, §C.1):
// Rate is the throttling rate, Burst the bucket size (rate×RTT in all the
// paper's experiments), Queue the TBF queue in bytes (0 = pure policer,
// larger values emulate shaping).
type LimiterSpec struct {
	Rate  float64
	Burst int
	Queue int
}

// PathSpec configures one of the non-common link sequences (l_1, l_2, ...)
// and the path that crosses it.
type PathSpec struct {
	// RTT is the path's total base round-trip time.
	RTT time.Duration
	// Rate is the non-common link's bandwidth in bits/s; 0 = unconstrained.
	Rate float64
	// Limiter, when non-nil, installs a rate limiter at the head of the
	// non-common segment (the FP experiments of §6.3).
	Limiter *LimiterSpec
	// PerFlowLimiter, when non-nil, installs a per-flow policer on the
	// non-common segment instead. Mutually exclusive with Limiter.
	PerFlowLimiter *LimiterSpec
	// BgRate is the mean rate of background traffic crossing only this
	// segment (the congestion and FP experiments of §6.3); 0 = none.
	BgRate float64
	// BgDiffFraction is the differentiated-class fraction of this
	// segment's background.
	BgDiffFraction float64
	// BgModPeriod and BgModSpread tune this segment's background
	// modulation (see CommonSpec).
	BgModPeriod time.Duration
	BgModSpread float64
}

// CommonSpec configures the common link sequence l_c.
type CommonSpec struct {
	// Delay is the one-way propagation delay of the common segment
	// (default 5 ms; per-path access delays make up the rest of each RTT).
	Delay time.Duration
	// Rate is the common link's bandwidth in bits/s; 0 = unconstrained.
	Rate float64
	// Limiter, when non-nil, installs the differentiation device at the
	// head of the common segment.
	Limiter *LimiterSpec
	// PerFlowLimiter, when non-nil, installs a per-flow policer instead
	// (the §3.2 limitation / §7 extension scenario). Mutually exclusive
	// with Limiter.
	PerFlowLimiter *LimiterSpec
	// BgRate is the mean rate of background traffic crossing the common
	// segment (and its limiter); 0 = none.
	BgRate float64
	// BgDiffFraction is the differentiated-class fraction of the common
	// background (§6.1: the share of other users' traffic belonging to the
	// throttled service).
	BgDiffFraction float64
	// BgModPeriod and BgModSpread tune the background's rate modulation.
	// The modulation must have power at the timescales Alg. 1 analyzes
	// (10–50 RTTs, i.e. 0.5–5 s) for loss-rate trends to exist at all —
	// CAIDA traffic does; see BackgroundConfig.
	BgModPeriod time.Duration
	BgModSpread float64
}

// BackgroundMode selects how a scenario models its background aggregate.
type BackgroundMode int

const (
	// BGPacket simulates every background packet (the default; exact).
	BGPacket BackgroundMode = iota
	// BGFluid models the background as piecewise-constant fluid inflow at
	// each constrained hop, integrated in closed form (DESIGN.md §14);
	// foreground traffic stays packet-granular.
	BGFluid
)

// Scenario instantiates the topology of the paper's Figure 1: n paths from
// distinct servers that converge at a common link sequence ending at the
// client. Foreground flows are attached per path; background sources are
// attached per segment.
type Scenario struct {
	Eng *Engine

	common CommonSpec
	paths  []PathSpec
	mode   BackgroundMode

	entries     []Hop // per-path entry (head of non-common segment)
	pathLims    []*RateLimiter
	pathLinks   []*Link
	CommonLim   *RateLimiter    // nil unless configured
	CommonPF    *PerFlowLimiter // nil unless configured
	CommonLink  *Link
	backgrounds []*Background
	fluidBGs    []*FluidBackground

	// fluidHops names every fluid queue engaged in this scenario, for
	// FinishFluid's drop-log folding and FluidEvents.
	fluidHops []namedFluid

	receivers map[int]Hop

	// DropLog records ground-truth drops per location name.
	DropLog map[string]int
}

type namedFluid struct {
	name string
	q    *FluidQueue
}

// backgroundFlowID marks background packets injected at the common segment;
// path-local background uses backgroundFlowID-(pathIdx+1).
const backgroundFlowID = -1

// NewScenario builds the topology with packet-granular background. seed
// derives the background traffic RNG streams; identical seeds give
// identical background.
func NewScenario(eng *Engine, seed int64, common CommonSpec, paths ...PathSpec) *Scenario {
	return NewScenarioMode(eng, seed, BGPacket, common, paths...)
}

// NewScenarioMode builds the topology with the chosen background mode. In
// BGFluid each background source feeds its segment's first constrained hop
// (limiter, else finite link) as analytic fluid; segments with no
// constrained hop get nothing, which is behaviorally exact — an infinite
// link neither queues nor drops, and path-local background is discarded at
// the join anyway.
func NewScenarioMode(eng *Engine, seed int64, mode BackgroundMode, common CommonSpec, paths ...PathSpec) *Scenario {
	if common.Delay <= 0 {
		common.Delay = 5 * time.Millisecond
	}
	s := &Scenario{
		Eng:       eng,
		common:    common,
		paths:     paths,
		mode:      mode,
		receivers: make(map[int]Hop),
		DropLog:   make(map[string]int),
	}
	drop := func(pkt *Packet, where string) { s.DropLog[where]++ }

	// Common chain, built back to front: demux ← common link ← limiter.
	// Unregistered flows (the background aggregate) end their packets'
	// lives here; registered receivers recycle their own.
	demux := HopFunc(func(pkt *Packet) {
		if rcv, ok := s.receivers[pkt.Flow]; ok {
			rcv.Send(pkt)
			return
		}
		eng.FreePacket(pkt)
	})
	s.CommonLink = NewLink(eng, "link_c", common.Rate, common.Delay, demux)
	s.CommonLink.OnDrop = drop
	commonHead := Hop(s.CommonLink)
	switch {
	case common.Limiter != nil:
		s.CommonLim = NewRateLimiter(eng, "tbf_c", common.Limiter.Rate,
			common.Limiter.Burst, common.Limiter.Queue, s.CommonLink)
		s.CommonLim.OnDrop = drop
		commonHead = s.CommonLim
	case common.PerFlowLimiter != nil:
		s.CommonPF = NewPerFlowLimiter(eng, "pftbf_c", common.PerFlowLimiter.Rate,
			common.PerFlowLimiter.Burst, common.PerFlowLimiter.Queue, s.CommonLink)
		s.CommonPF.OnDrop = drop
		commonHead = s.CommonPF
	}
	// The join discards (and recycles) path-local background so it never
	// crosses l_c.
	join := HopFunc(func(pkt *Packet) {
		if pkt.Flow < backgroundFlowID {
			eng.FreePacket(pkt)
			return
		}
		commonHead.Send(pkt)
	})
	if common.BgRate > 0 {
		cfg := BackgroundConfig{
			MeanRate:     common.BgRate,
			DiffFraction: common.BgDiffFraction,
			ModPeriod:    common.BgModPeriod,
			ModSpread:    common.BgModSpread,
			Stop:         1 << 62,
		}
		rng := rand.New(rand.NewSource(seed))
		if mode == BGFluid {
			diffQ, defQ := s.commonFluidTargets()
			bg, err := NewFluidBackground(eng, cfg, rng, diffQ, defQ)
			if err != nil {
				panic(err) // specs are scenario-derived; invalid means a wiring bug
			}
			s.fluidBGs = append(s.fluidBGs, bg)
		} else {
			bg, err := NewBackground(eng, cfg, rng, commonHead)
			if err != nil {
				panic(err)
			}
			s.backgrounds = append(s.backgrounds, bg)
		}
	}

	// Per-path non-common segments.
	for i, p := range paths {
		name := pathName("link", i)
		accessDelay := p.RTT/2 - common.Delay
		if accessDelay < 0 {
			accessDelay = 0
		}
		link := NewLink(eng, name, p.Rate, accessDelay, join)
		link.OnDrop = drop
		s.pathLinks = append(s.pathLinks, link)
		entry := Hop(link)
		var lim *RateLimiter
		switch {
		case p.Limiter != nil:
			lim = NewRateLimiter(eng, pathName("tbf", i), p.Limiter.Rate,
				p.Limiter.Burst, p.Limiter.Queue, link)
			lim.OnDrop = drop
			entry = lim
		case p.PerFlowLimiter != nil:
			pf := NewPerFlowLimiter(eng, pathName("pftbf", i), p.PerFlowLimiter.Rate,
				p.PerFlowLimiter.Burst, p.PerFlowLimiter.Queue, link)
			pf.OnDrop = drop
			entry = pf
		}
		s.pathLims = append(s.pathLims, lim)
		s.entries = append(s.entries, entry)
		if p.BgRate > 0 {
			cfg := BackgroundConfig{
				MeanRate:     p.BgRate,
				DiffFraction: p.BgDiffFraction,
				ModPeriod:    p.BgModPeriod,
				ModSpread:    p.BgModSpread,
				Stop:         1 << 62,
			}
			rng := rand.New(rand.NewSource(seed + int64(i) + 1))
			if mode == BGFluid {
				diffQ, defQ := s.pathFluidTargets(i)
				bg, err := NewFluidBackground(eng, cfg, rng, diffQ, defQ)
				if err != nil {
					panic(err)
				}
				s.fluidBGs = append(s.fluidBGs, bg)
			} else {
				bgID := backgroundFlowID - (i + 1)
				src := entry
				bg, err := NewBackground(eng, cfg, rng, HopFunc(func(pkt *Packet) {
					pkt.Flow = bgID
					src.Send(pkt)
				}))
				if err != nil {
					panic(err)
				}
				s.backgrounds = append(s.backgrounds, bg)
			}
		}
	}
	return s
}

func pathName(prefix string, i int) string {
	return fmt.Sprintf("%s_%d", prefix, i+1)
}

// Entry returns the hop where path i's server injects packets.
func (s *Scenario) Entry(i int) Hop { return s.entries[i] }

// BackDelay returns the one-way return delay for path i (half the base RTT;
// the return path is loss-free and uncongested).
func (s *Scenario) BackDelay(i int) time.Duration { return s.paths[i].RTT / 2 }

// RTT returns path i's configured base RTT.
func (s *Scenario) RTT(i int) time.Duration { return s.paths[i].RTT }

// Register installs the receiving hop for a foreground flow ID.
func (s *Scenario) Register(flowID int, rcv Hop) { s.receivers[flowID] = rcv }

// StartBackground begins all background sources, stopping them at stop.
func (s *Scenario) StartBackground(start, stop time.Duration) {
	for _, bg := range s.backgrounds {
		bg.cfg.Stop = stop
		bg.Start(start)
	}
	for _, bg := range s.fluidBGs {
		bg.cfg.Stop = stop
		bg.Start(start)
	}
}

// trackFluid registers a named fluid queue for FinishFluid/FluidEvents,
// deduplicating by pointer.
func (s *Scenario) trackFluid(name string, q *FluidQueue) *FluidQueue {
	for _, nf := range s.fluidHops {
		if nf.q == q {
			return q
		}
	}
	s.fluidHops = append(s.fluidHops, namedFluid{name: name, q: q})
	return q
}

// commonFluidTargets resolves the common segment's fluid queues: the
// differentiated class lands on the limiter (coupled into the finite
// common link, if any); the default class bypasses onto the finite link.
// A per-flow limiter is a packet-granular device with no aggregate-fluid
// analog, so fluid background treats it as transparent.
func (s *Scenario) commonFluidTargets() (diff, def *FluidQueue) {
	var linkQ *FluidQueue
	if s.common.Rate > 0 {
		linkQ = s.trackFluid(s.CommonLink.Name, s.CommonLink.Fluid())
	}
	if s.CommonLim != nil {
		limQ := s.trackFluid(s.CommonLim.Name, s.CommonLim.Fluid())
		if linkQ != nil {
			limQ.FeedsInto(linkQ)
		}
		return limQ, linkQ
	}
	return linkQ, linkQ
}

// pathFluidTargets is commonFluidTargets for path i's non-common segment.
func (s *Scenario) pathFluidTargets(i int) (diff, def *FluidQueue) {
	var linkQ *FluidQueue
	if l := s.pathLinks[i]; l.Rate > 0 {
		linkQ = s.trackFluid(l.Name, l.Fluid())
	}
	if lim := s.pathLims[i]; lim != nil {
		limQ := s.trackFluid(lim.Name, lim.Fluid())
		if linkQ != nil {
			limQ.FeedsInto(linkQ)
		}
		return limQ, linkQ
	}
	return linkQ, linkQ
}

// FluidEntry resolves where fluid demand entering through path i meets its
// first constrained hop: the path's limiter, else its finite link, else
// the common limiter, else the finite common link; nil if the whole route
// is unconstrained (then the demand could never queue or drop anywhere in
// packet mode either).
func (s *Scenario) FluidEntry(i int) *FluidQueue {
	if diffQ, _ := s.pathFluidTargets(i); diffQ != nil {
		return diffQ
	}
	diffQ, _ := s.commonFluidTargets()
	return diffQ
}

// FinishFluid advances every engaged fluid queue to at and folds the
// accumulated fluid loss into DropLog (as mean-size packet equivalents)
// under the same hop names packet mode uses. Call once, after the run.
func (s *Scenario) FinishFluid(at time.Duration) {
	for _, nf := range s.fluidHops {
		st := nf.q.Stats(at)
		if n := int(st.DroppedBytes / meanBgPacketSize); n > 0 {
			s.DropLog[nf.name] += n
		}
	}
}

// FluidEvents sums the coarse bookkeeping events processed by the
// scenario's fluid queues and background walks (churn events are owned by
// the FluidChurn instance). It measures what replaced per-packet work.
func (s *Scenario) FluidEvents() int64 {
	var n int64
	for _, nf := range s.fluidHops {
		n += nf.q.Events
	}
	for _, bg := range s.fluidBGs {
		n += bg.Events
	}
	return n
}

// PathLimiter returns the limiter on path i's non-common segment (nil if
// none).
func (s *Scenario) PathLimiter(i int) *RateLimiter { return s.pathLims[i] }

// PathLink returns path i's non-common link.
func (s *Scenario) PathLink(i int) *Link { return s.pathLinks[i] }

// TotalDrops sums ground-truth drops at the named location.
func (s *Scenario) TotalDrops(where string) int { return s.DropLog[where] }
