// Package fleet is WeHeY's population-level inference layer: it turns the
// per-session localization verdicts the campaign service produces into
// ISP-scale differentiation maps (DESIGN.md §16, the ROADMAP's
// fleet-level aggregation item).
//
// One session answers "does MY path throttle MY app, inside MY ISP?";
// the fleet question is "WHICH networks throttle WHAT, with how much
// confidence?". The layer has three parts:
//
//   - Posterior/Aggregator: an incremental Beta(1,1)-Bernoulli posterior
//     per (ISP, app-class) cell over the binary localized-to-ISP verdicts
//     of terminal jobs. Cells store integer counts, so updating is O(1)
//     per verdict and merging two aggregators is count addition —
//     commutative and associative, which makes shard-parallel aggregation
//     order-invariant and its serialized snapshot byte-identical across
//     worker counts and arrival orders.
//
//   - Identifiability (identify.go + internal/tomo.PathMatrix): before
//     trusting any posterior, a boolean-tomography pass over the
//     campaign's path sets decides which candidate segments the
//     measurements CAN blame. A segment no path crosses, or one whose
//     path set equals another's, is reported unidentifiable instead of
//     scored — the Map never shows a false posterior for it.
//
//   - Campaign/Score (campaign.go): the planted-ground-truth harness —
//     render an experiments.FleetCampaignSpec as service job specs, drive
//     them through a live wehey-serve (follower.go) or evaluate them
//     directly, and score the inferred map against the plant
//     (ranking, precision/recall, Brier).
//
// The package is inside the walltime and detrand lint scopes: all time
// flows through an injected clock.Clock and the layer draws no
// randomness at all — posteriors are pure functions of the verdict
// multiset.
package fleet

import (
	"encoding/json"
	"sort"

	"github.com/nal-epfl/wehey/internal/service"
	"github.com/nal-epfl/wehey/internal/tomo"
)

// Posterior is a Beta(1,1)-Bernoulli posterior over "sessions through
// this cell localize differentiation to the ISP", stored as the raw
// verdict counts. The uniform prior means one session moves the mean to
// 2/3 or 1/3 — visible but not decisive — and thousands pin it.
type Posterior struct {
	// Pos counts sessions whose verdict localized to the ISP.
	Pos int64 `json:"pos"`
	// Neg counts sessions whose verdict did not.
	Neg int64 `json:"neg"`
}

// Observe folds one verdict in.
func (p *Posterior) Observe(localized bool) {
	if localized {
		p.Pos++
	} else {
		p.Neg++
	}
}

// Merge returns the posterior over both count sets. Addition is
// commutative and associative, so any merge tree over any partition of
// the verdicts yields the same result.
func (p Posterior) Merge(q Posterior) Posterior {
	return Posterior{Pos: p.Pos + q.Pos, Neg: p.Neg + q.Neg}
}

// N is the number of verdicts observed.
func (p Posterior) N() int64 { return p.Pos + p.Neg }

// Mean is the posterior mean (1+Pos)/(2+N): a deterministic function of
// the integer counts, so equal counts render equal bytes.
func (p Posterior) Mean() float64 {
	return float64(1+p.Pos) / float64(2+p.Pos+p.Neg)
}

// Cell addresses one posterior: an access ISP crossed with an
// application class (the trace pair the sessions replayed).
type Cell struct {
	ISP int    `json:"isp"`
	App string `json:"app"`
}

// Aggregator accumulates verdicts into per-cell posteriors. It is a
// plain value for one goroutine; shard-parallel use is K aggregators
// merged at the end (Merge), which the integer-count representation
// makes order-invariant.
type Aggregator struct {
	cells map[Cell]*Posterior
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{cells: make(map[Cell]*Posterior)}
}

// Observe credits one verdict to a cell.
func (a *Aggregator) Observe(cell Cell, localized bool) {
	p := a.cells[cell]
	if p == nil {
		p = &Posterior{}
		a.cells[cell] = p
	}
	p.Observe(localized)
}

// ObserveJob credits a terminal service job carrying fleet attribution:
// done jobs contribute their localized-to-ISP verdict; failed and
// canceled jobs (and jobs without fleet metadata or a result) contribute
// nothing. It reports whether the job was credited.
func (a *Aggregator) ObserveJob(j service.Job) bool {
	if j.State != service.StateDone || j.Spec.Fleet == nil || j.Result == nil {
		return false
	}
	app := ""
	if j.Spec.Sim != nil {
		app = j.Spec.Sim.App
	}
	a.Observe(Cell{ISP: j.Spec.Fleet.ISP, App: app}, j.Result.LocalizedToISP)
	return true
}

// Merge folds other's counts into a. Safe with an empty or nil other.
func (a *Aggregator) Merge(other *Aggregator) {
	if other == nil {
		return
	}
	for cell, q := range other.cells {
		p := a.cells[cell]
		if p == nil {
			p = &Posterior{}
			a.cells[cell] = p
		}
		*p = p.Merge(*q)
	}
}

// Entry is one scored cell of the differentiation map.
type Entry struct {
	Cell
	// Sessions and Localized are the raw counts behind the posterior.
	Sessions  int64 `json:"sessions"`
	Localized int64 `json:"localized"`
	// Identifiable mirrors the identifiability report for the cell's ISP
	// segment. When false, Posterior is omitted — the path set cannot
	// attribute blame to this ISP, so a number here would be a false
	// posterior (the counts remain visible as raw data).
	Identifiable bool `json:"identifiable"`
	// Posterior is the Beta-Bernoulli mean (identifiable cells only).
	Posterior float64 `json:"posterior,omitempty"`
}

// Map is the fleet-level differentiation map: scored cells plus the
// identifiability report that gates them.
type Map struct {
	// Entries are the populated cells, sorted by (ISP, App).
	Entries []Entry `json:"entries"`
	// Unidentifiable lists segment IDs the campaign's path sets cannot
	// blame — unobserved (path-starved) or confused with another segment
	// — sorted. ISPs listed here are never scored.
	Unidentifiable []string `json:"unidentifiable"`
	// Identify is the full per-segment identifiability report.
	Identify []tomo.SegmentIdent `json:"identify"`
}

// Snapshot renders the aggregator against an identifiability report
// (tomo.PathMatrix.Identify over the campaign's path sets; nil means
// every cell is taken as identifiable). The result is a pure function of
// the accumulated counts and the report: byte-identical across
// aggregation orders.
func (a *Aggregator) Snapshot(ident []tomo.SegmentIdent) Map {
	identifiable := make(map[string]bool, len(ident))
	var unident []string
	for _, e := range ident {
		identifiable[e.ID] = e.Identifiable
		if !e.Identifiable {
			unident = append(unident, e.ID)
		}
	}
	sort.Strings(unident)

	cells := make([]Cell, 0, len(a.cells))
	for cell := range a.cells {
		cells = append(cells, cell)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].ISP != cells[j].ISP {
			return cells[i].ISP < cells[j].ISP
		}
		return cells[i].App < cells[j].App
	})

	m := Map{Identify: ident, Unidentifiable: unident}
	for _, cell := range cells {
		p := a.cells[cell]
		e := Entry{
			Cell:      cell,
			Sessions:  p.N(),
			Localized: p.Pos,
		}
		if ok, known := identifiable[ISPSegment(cell.ISP)]; ok || (ident == nil && !known) {
			e.Identifiable = true
			e.Posterior = p.Mean()
		}
		m.Entries = append(m.Entries, e)
	}
	return m
}

// MarshalIndent is the canonical JSON rendering of the map (wehey-map's
// output format). Entries and report are pre-sorted and counts are
// integers, so equal maps render equal bytes.
func (m Map) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}
