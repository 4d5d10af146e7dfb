package fleet

import (
	"fmt"
	"sort"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/service"
	"github.com/nal-epfl/wehey/internal/tomo"
	"github.com/nal-epfl/wehey/internal/topology"
)

// Campaign binds a planted-ground-truth spec to a name (the fleet
// attribution key on its jobs) and the synthetic topology its sessions
// run over.
type Campaign struct {
	// Name travels in every job's FleetMeta.Campaign.
	Name string
	// Spec is the campaign plan: plants, starved ISPs, session count.
	Spec experiments.FleetCampaignSpec
}

// NewCampaign fills the spec and returns the campaign.
func NewCampaign(name string, spec experiments.FleetCampaignSpec) Campaign {
	return Campaign{Name: name, Spec: spec.Filled()}
}

// Topology is the synthetic-Internet spec the campaign's sessions run
// over: candidate counts match the campaign so the identifiability pass
// and the posterior map name the same ISPs.
func (c Campaign) Topology() topology.SynthSpec {
	return topology.SynthSpec{ISPs: c.Spec.ISPs, Servers: c.Spec.Servers}.Filled()
}

// Plan enumerates the campaign's sessions (experiments.SessionPlan).
func (c Campaign) Plan() []experiments.FleetSession {
	return c.Spec.SessionPlan()
}

// PathMatrix is the campaign's boolean path-incidence matrix.
func (c Campaign) PathMatrix() *tomo.PathMatrix {
	return BuildPathMatrix(c.Topology(), c.Plan())
}

// JobSpecs renders the plan as service job specs for the sim backend,
// one per session, each carrying its fleet attribution. Submitting them
// (in any order, any batching) and aggregating the terminal results
// reproduces exactly what EvalCampaign computes in-process: the sim
// backend decides each job with the same experiments.Config.Localize,
// and the session seeds are functions of the plan, not of submission
// order. Each spec spells out the plan's duration.
func (c Campaign) JobSpecs() []service.Spec {
	plan := c.Plan()
	specs := make([]service.Spec, len(plan))
	for i, sess := range plan {
		placement := "noncommon"
		if sess.Throttled {
			placement = "common"
		}
		specs[i] = service.Spec{
			Backend:     service.BackendSim,
			Seed:        sess.Spec.Seed,
			MaxAttempts: 1, // verdicts are deterministic: a retry cannot differ
			Sim: &service.SimJob{
				App:       sess.Spec.App,
				Placement: placement,
				Duration:  sess.Spec.Duration,
			},
			Fleet: &service.FleetMeta{
				Campaign: c.Name,
				Session:  sess.Index,
				ISP:      sess.ISP,
				Server:   sess.Server,
			},
		}
	}
	return specs
}

// Eval evaluates the campaign directly (no service in the loop) through
// cfg and returns the aggregated outcomes. Errored sessions (the
// detector could not run) are skipped, mirroring how failed jobs never
// reach the aggregator on the service path.
func (c Campaign) Eval(cfg experiments.Config) *Aggregator {
	agg := NewAggregator()
	for _, o := range cfg.EvalCampaign(c.Spec) {
		if o.Err != "" {
			continue
		}
		agg.Observe(Cell{ISP: o.ISP, App: c.Spec.App}, o.Localized)
	}
	return agg
}

// Score grades an inferred map against the campaign's planted ground
// truth.
type Score struct {
	// Ranking lists the scored (identifiable, observed) ISPs by posterior,
	// best first; ties break toward the lower index.
	Ranking []RankedISP `json:"ranking"`
	// TopISP is Ranking[0]'s ISP (-1 when nothing was scored).
	TopISP int `json:"top_isp"`
	// TopPosterior is Ranking[0]'s posterior.
	TopPosterior float64 `json:"top_posterior"`
	// TopIsPlanted: the top-ranked ISP is one of the planted throttlers.
	TopIsPlanted bool `json:"top_is_planted"`
	// Precision and Recall classify scored ISPs at posterior ≥ 0.5
	// against the plant.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// Brier is the mean squared error of the posterior against the 0/1
	// plant over scored ISPs (lower is better; 0.25 = knowing nothing).
	Brier float64 `json:"brier"`
	// Unidentifiable echoes the map's unidentifiable segment list.
	Unidentifiable []string `json:"unidentifiable"`
}

// RankedISP is one scored ISP in plant order quality.
type RankedISP struct {
	ISP       int     `json:"isp"`
	Posterior float64 `json:"posterior"`
	Sessions  int64   `json:"sessions"`
	Planted   bool    `json:"planted"`
}

// ScoreMap grades m against the campaign plant. Cells are collapsed per
// ISP (count addition over app classes) before ranking; unidentifiable
// ISPs are excluded from ranking and error metrics — the map refused to
// score them, and that refusal is graded via Unidentifiable instead.
func (c Campaign) ScoreMap(m Map) Score {
	planted := make(map[int]bool, len(c.Spec.ThrottledISPs))
	for _, i := range c.Spec.ThrottledISPs {
		planted[i] = true
	}

	perISP := make(map[int]Posterior)
	scored := make(map[int]bool)
	for _, e := range m.Entries {
		if !e.Identifiable {
			continue
		}
		perISP[e.ISP] = perISP[e.ISP].Merge(Posterior{Pos: e.Localized, Neg: e.Sessions - e.Localized})
		scored[e.ISP] = true
	}

	isps := make([]int, 0, len(perISP))
	for isp := range perISP {
		isps = append(isps, isp)
	}
	sort.Ints(isps)

	s := Score{TopISP: -1, Unidentifiable: m.Unidentifiable}
	var truePos, predPos, plantScored int
	var brierSum float64
	for _, isp := range isps {
		p := perISP[isp]
		s.Ranking = append(s.Ranking, RankedISP{
			ISP: isp, Posterior: p.Mean(), Sessions: p.N(), Planted: planted[isp],
		})
		truth := 0.0
		if planted[isp] {
			truth = 1
			plantScored++
		}
		if p.Mean() >= 0.5 {
			predPos++
			if planted[isp] {
				truePos++
			}
		}
		d := p.Mean() - truth
		brierSum += d * d
	}
	sort.SliceStable(s.Ranking, func(i, j int) bool {
		if s.Ranking[i].Posterior > s.Ranking[j].Posterior {
			return true
		}
		if s.Ranking[i].Posterior < s.Ranking[j].Posterior {
			return false
		}
		return s.Ranking[i].ISP < s.Ranking[j].ISP
	})
	if len(s.Ranking) > 0 {
		s.TopISP = s.Ranking[0].ISP
		s.TopPosterior = s.Ranking[0].Posterior
		s.TopIsPlanted = planted[s.TopISP]
		s.Brier = brierSum / float64(len(s.Ranking))
	}
	if predPos > 0 {
		s.Precision = float64(truePos) / float64(predPos)
	}
	if plantScored > 0 {
		s.Recall = float64(truePos) / float64(plantScored)
	}
	return s
}

// String summarizes the score on one line.
func (s Score) String() string {
	return fmt.Sprintf("top=isp-%d posterior=%.3f planted=%v precision=%.2f recall=%.2f brier=%.4f unidentifiable=%d",
		s.TopISP, s.TopPosterior, s.TopIsPlanted, s.Precision, s.Recall, s.Brier, len(s.Unidentifiable))
}
