package experiments

import (
	"sort"
	"time"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/core"
)

// This file is the experiments half of the fleet-inference subsystem
// (DESIGN.md §16): the shared per-session verdict path that the service's
// sim backend and internal/fleet's direct ground-truth harness both call
// — so a verdict computed in-process is bit-identical to the one a
// wehey-serve job would report — and the planted-ground-truth campaign
// generator that turns a FleetCampaignSpec into a deterministic session
// plan plus its evaluated outcomes.

// detectSeedTag is the fixed identity string mixed into a sim run's seed
// to derive its detector rng.
const detectSeedTag = "sim-detect"

// DetectSeed derives the detector rng seed for a sim run from the run's
// spec seed: seed ^ FNV-1a("sim-detect"). The detector draws from its rng
// only for the throughput comparison, which needs a T_diff that a sim
// trial never has, so Localize builds no rng; bench/ still seeds its
// traced detector with this.
func DetectSeed(seed int64) int64 { return seed ^ int64(hash64(detectSeedTag)) }

// SimVerdict is the localization verdict of one simulated session.
type SimVerdict struct {
	// LocalizedToISP: the common-bottleneck detector found evidence that
	// differentiation happens on the shared (ISP-side) link sequence.
	LocalizedToISP bool `json:"localized_to_isp"`
	// Evidence is the detector's evidence summary.
	Evidence string `json:"evidence"`
	// LossRate is the two paths' overall loss rates.
	LossRate [2]float64 `json:"loss_rates"`
}

// Localize runs one simulated session through the configured cache and
// decides it with wehey.Localizer.Detect (loss-trend correlation; a sim
// session has no historical T_diff). The verdict is a deterministic
// function of the spec and exactly the one the service's sim backend
// reports. Through a cache it is decided once per entry and shared
// (SimCache): a repeated spec costs one cache hit, and a rerun off the
// disk reads the verdict's record alone.
func (c Config) Localize(spec SimSpec) (wehey.Verdict, error) {
	if c.Cache == nil {
		return c.trial(spec).verdict()
	}
	return c.Cache.localize(c.withMode(spec))
}

// decide is operation 4 on a simulated trial. The trial is throttled by
// construction, so WeHe's end-to-end detection and the simultaneous
// confirmation hold without a replay. res.LossRate, not
// M1/M2.LossRate(): for a TCP flow it is the retransmission rate, which
// is what the service has always reported.
func decide(res *SimResult) (wehey.Verdict, error) {
	v := wehey.Verdict{WeHeDetected: true, Confirmed: true, LossRates: res.LossRate}
	// No T_diff, so the detector never draws from Localizer.Rand.
	err := (&wehey.Localizer{}).Detect(&v, core.DetectorInput{M1: &res.M1, M2: &res.M2})
	return v, err
}

// Verdict is Localize projected onto a SimVerdict; bench/ is its only
// remaining caller.
func (c Config) Verdict(spec SimSpec) (SimVerdict, error) {
	v, err := c.Localize(spec)
	if err != nil {
		return SimVerdict{}, err
	}
	return SimVerdict{LocalizedToISP: v.LocalizedToISP, Evidence: v.Evidence.String(), LossRate: v.LossRates}, nil
}

// FleetCampaignSpec describes one planted-ground-truth campaign over the
// synthetic Internet: which ISPs throttle, which are deliberately starved
// of sessions (to exercise the identifiability pass), and how many
// sessions the fleet contributes.
type FleetCampaignSpec struct {
	// ISPs is the number of candidate access ISPs (default 12, matching
	// topology.SynthSpec).
	ISPs int
	// Servers is the number of server sites sessions rotate through
	// (default 8, matching topology.SynthSpec).
	Servers int
	// ThrottledISPs lists the ISP indices with planted throttling
	// (sessions through them simulate a common-link limiter).
	ThrottledISPs []int
	// StarvedISPs lists ISP indices that contribute no sessions at all —
	// their path-matrix columns stay empty, so the identifiability pass
	// must flag them instead of the posterior scoring them.
	StarvedISPs []int
	// Sessions is the total session count across all non-starved ISPs
	// (default 2048).
	Sessions int
	// App is the replayed trace pair (default tcpbulk).
	App string
	// Duration of each session's replay (default 45 s: the loss-trend
	// detector needs ≥8 retained intervals at its largest interval size,
	// which short replays cannot provide).
	Duration time.Duration
	// SeedPool is the number of distinct sim seeds per placement class.
	// Sessions reuse seeds round-robin, so a campaign of any size costs at
	// most 2×SeedPool distinct simulations — the rest are cache hits,
	// exactly as the service's content-addressed sim cache dedups repeated
	// specs at scale (default 32).
	SeedPool int
	// Seed drives the campaign's seed derivation.
	Seed int64
}

func (s *FleetCampaignSpec) fill() {
	if s.ISPs <= 0 {
		s.ISPs = 12
	}
	if s.Servers <= 0 {
		s.Servers = 8
	}
	if s.Sessions <= 0 {
		s.Sessions = 2048
	}
	if s.App == "" {
		s.App = TCPBulkApp
	}
	if s.Duration <= 0 {
		s.Duration = 45 * time.Second
	}
	if s.SeedPool <= 0 {
		s.SeedPool = 32
	}
	s.ThrottledISPs = canonIndices(s.ThrottledISPs)
	s.StarvedISPs = canonIndices(s.StarvedISPs)
}

// Filled returns a copy of the spec with defaults applied and index lists
// canonicalized (sorted, deduplicated).
func (s FleetCampaignSpec) Filled() FleetCampaignSpec {
	s.fill()
	return s
}

// canonIndices sorts and deduplicates, mapping empty to nil so a spec
// relying on defaults and one spelling out an empty list fill to equal
// values.
func canonIndices(in []int) []int {
	if len(in) == 0 {
		return nil
	}
	out := append([]int(nil), in...)
	sort.Ints(out)
	k := 0
	for i, v := range out {
		if i == 0 || v != out[k-1] {
			out[k] = v
			k++
		}
	}
	return out[:k]
}

// FleetSession is one planned session of a campaign.
type FleetSession struct {
	// Index is the session's position in the campaign plan.
	Index int
	// ISP is the access ISP the session runs through.
	ISP int
	// Server is the server site the session measures against.
	Server int
	// Throttled is the planted ground truth for the session's ISP.
	Throttled bool
	// Spec is the simulation the session runs: common-link limiter
	// placement when the ISP throttles (differentiation inside the ISP),
	// non-common placement otherwise.
	Spec SimSpec
}

// SessionPlan enumerates the campaign's sessions deterministically:
// sessions round-robin over the non-starved ISPs and rotate through the
// server sites, and each draws its sim seed from a fixed per-placement
// pool via specSeed — a function of what the session is, never of
// submission or completion order.
func (s FleetCampaignSpec) SessionPlan() []FleetSession {
	s.fill()
	starved := make(map[int]bool, len(s.StarvedISPs))
	for _, i := range s.StarvedISPs {
		starved[i] = true
	}
	throttled := make(map[int]bool, len(s.ThrottledISPs))
	for _, i := range s.ThrottledISPs {
		throttled[i] = true
	}
	active := make([]int, 0, s.ISPs)
	for i := 0; i < s.ISPs; i++ {
		if !starved[i] {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		return nil
	}

	plan := make([]FleetSession, s.Sessions)
	for i := range plan {
		isp := active[i%len(active)]
		sess := FleetSession{
			Index:     i,
			ISP:       isp,
			Server:    (i / len(active)) % s.Servers,
			Throttled: throttled[isp],
		}
		placement, key := LimiterNonCommon, "noncommon"
		if sess.Throttled {
			placement, key = LimiterCommon, "common"
		}
		sess.Spec = SimSpec{
			App:       s.App,
			Duration:  s.Duration,
			Placement: placement,
			Seed:      specSeed(s.Seed, "fleet-campaign", key, i%s.SeedPool),
		}
		plan[i] = sess
	}
	return plan
}

// SessionOutcome is one session's evaluated result: the planted ground
// truth alongside the verdict the detector actually reached.
type SessionOutcome struct {
	Index     int    `json:"index"`
	ISP       int    `json:"isp"`
	Server    int    `json:"server"`
	Throttled bool   `json:"throttled"`
	Localized bool   `json:"localized"`
	Err       string `json:"err,omitempty"`
}

// EvalCampaign evaluates every planned session directly (no service in
// the loop). Verdicts are computed once per distinct SimSpec — the plan's
// seed pooling collapses thousands of sessions onto at most 2×SeedPool
// simulations — on the configured worker pool, then fanned back out to
// sessions in plan order, so the result is independent of worker count.
func (c Config) EvalCampaign(spec FleetCampaignSpec) []SessionOutcome {
	plan := spec.SessionPlan()
	uniq := make(map[SimSpec]int)
	var order []SimSpec
	for _, sess := range plan {
		if _, ok := uniq[sess.Spec]; !ok {
			uniq[sess.Spec] = len(order)
			order = append(order, sess.Spec)
		}
	}
	type evaled struct {
		v   wehey.Verdict
		err error
	}
	verdicts := ForEach(len(order), c.workers(), func(i int) evaled {
		v, err := c.Localize(order[i])
		return evaled{v, err}
	})

	out := make([]SessionOutcome, len(plan))
	for i, sess := range plan {
		ev := verdicts[uniq[sess.Spec]]
		out[i] = SessionOutcome{
			Index:     sess.Index,
			ISP:       sess.ISP,
			Server:    sess.Server,
			Throttled: sess.Throttled,
			Localized: ev.v.LocalizedToISP,
		}
		if ev.err != nil {
			out[i].Err = ev.err.Error()
		}
	}
	return out
}
