package fleet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/tomo"
)

// groundTruthSpec is the acceptance-criteria campaign: 12 candidate
// ISPs, throttling planted on one, one deliberately path-starved, and
// 2048 sessions. The seed pool keeps the whole thing at 32 distinct
// simulations regardless of session count.
func groundTruthSpec() experiments.FleetCampaignSpec {
	return experiments.FleetCampaignSpec{
		ThrottledISPs: []int{3},
		StarvedISPs:   []int{7},
		Sessions:      2048,
		SeedPool:      16,
		Seed:          20260808,
	}
}

// TestGroundTruthScore is the subsystem's acceptance test: the inferred
// map must rank the planted ISP first with posterior ≥ 0.9, keep every
// clean ISP far below threshold, and declare the path-starved ISP
// unidentifiable instead of scoring it.
func TestGroundTruthScore(t *testing.T) {
	if testing.Short() {
		t.Skip("ground-truth campaign evaluates 32 paper-scale simulations")
	}
	c := NewCampaign("gt", groundTruthSpec())
	cfg := experiments.Config{Cache: experiments.NewSimCache()}

	agg := c.Eval(cfg)
	m := agg.Snapshot(c.PathMatrix().Identify())
	score := c.ScoreMap(m)
	t.Logf("score: %s", score)

	if score.TopISP != 3 || !score.TopIsPlanted {
		t.Errorf("top ISP = %d, want the planted 3", score.TopISP)
	}
	if score.TopPosterior < 0.9 {
		t.Errorf("planted posterior = %.4f, want ≥ 0.9", score.TopPosterior)
	}
	if score.Precision < 1 || score.Recall < 1 {
		t.Errorf("precision/recall = %.2f/%.2f, want 1/1", score.Precision, score.Recall)
	}
	if score.Brier > 0.05 {
		t.Errorf("Brier = %.4f, want ≤ 0.05", score.Brier)
	}

	// The starved ISP is flagged, not scored.
	starvedFlagged := false
	for _, id := range m.Unidentifiable {
		if id == ISPSegment(7) {
			starvedFlagged = true
		}
	}
	if !starvedFlagged {
		t.Errorf("starved isp-7 missing from Unidentifiable: %v", m.Unidentifiable)
	}
	for _, r := range score.Ranking {
		if r.ISP == 7 {
			t.Error("starved isp-7 was ranked despite being unidentifiable")
		}
	}
	// Every clean scored ISP sits far below threshold.
	for _, r := range score.Ranking[1:] {
		if r.Posterior >= 0.5 {
			t.Errorf("clean isp-%d posterior %.4f ≥ 0.5", r.ISP, r.Posterior)
		}
	}

	// Byte-identity across worker counts: the same campaign evaluated
	// serially renders the same snapshot bytes (the sim cache makes the
	// second pass cheap).
	want, err := m.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	serial := c.Eval(experiments.Config{Workers: 1, Cache: cfg.Cache})
	got, err := serial.Snapshot(c.PathMatrix().Identify()).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("snapshot differs between worker counts")
	}

	// ...and across arrival orders and shard counts: outcomes shuffled
	// into independent aggregators, merged in shuffled order.
	outcomes := cfg.EvalCampaign(c.Spec)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(outcomes), func(i, j int) { outcomes[i], outcomes[j] = outcomes[j], outcomes[i] })
		shards := 1 + rng.Intn(6)
		aggs := make([]*Aggregator, shards)
		for i := range aggs {
			aggs[i] = NewAggregator()
		}
		for i, o := range outcomes {
			if o.Err != "" {
				continue
			}
			aggs[i%shards].Observe(Cell{ISP: o.ISP, App: c.Spec.App}, o.Localized)
		}
		merged := NewAggregator()
		for _, i := range rng.Perm(shards) {
			merged.Merge(aggs[i])
		}
		got, err := merged.Snapshot(c.PathMatrix().Identify()).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d shards): shuffled aggregation differs", trial, shards)
		}
	}
}

// TestIdentifiabilityStructure pins the path-matrix construction over
// the synthetic topology: every non-starved ISP observed and
// identifiable, the starved one unobserved, transit/server segments
// distinguishable once every server is covered.
func TestIdentifiabilityStructure(t *testing.T) {
	c := NewCampaign("gt", groundTruthSpec())
	idents := c.PathMatrix().Identify()
	byID := make(map[string]int, len(idents))
	for i, e := range idents {
		byID[e.ID] = i
	}
	for isp := 0; isp < 12; isp++ {
		e := idents[byID[ISPSegment(isp)]]
		if isp == 7 {
			if e.Observed || e.Identifiable {
				t.Errorf("starved %s = %+v; want unobserved", e.ID, e)
			}
			continue
		}
		if !e.Identifiable {
			t.Errorf("%s = %+v; want identifiable", e.ID, e)
		}
	}
	// 11 active ISPs × 8 servers = 88 distinct routes.
	topo := c.Topology()
	e := idents[byID[TransitSegment(0)]]
	if !e.Identifiable {
		t.Errorf("transit-0 = %+v; want identifiable (both its servers covered)", e)
	}
	if topo.TransitASes != 4 || topo.Servers != 8 {
		t.Fatalf("unexpected topology defaults: %+v", topo)
	}
}

// TestBuildPathMatrixEqualsAddingEverySession: skipping the sessions of a
// route already added changes nothing in the report — it equals the one
// built by adding every session's path, in any order, and the starved
// ISPs are declared in both.
func TestBuildPathMatrixEqualsAddingEverySession(t *testing.T) {
	spec := groundTruthSpec()
	spec.StarvedISPs = []int{0, 7}
	c := NewCampaign("gt", spec)
	topo, plan := c.Topology(), c.Plan()
	got := BuildPathMatrix(topo, plan).Identify()

	shuffled := append([]experiments.FleetSession(nil), plan...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	every := tomo.NewPathMatrix()
	for _, sess := range shuffled {
		every.AddPath(SessionPath(topo, sess.ISP, sess.Server))
	}
	for i := 0; i < topo.ISPs; i++ {
		every.AddSegment(ISPSegment(i))
	}
	if want := every.Identify(); !reflect.DeepEqual(got, want) {
		t.Errorf("report over distinct routes differs from the one over every session:\n got %+v\nwant %+v", got, want)
	}
	if again := BuildPathMatrix(topo, shuffled).Identify(); !reflect.DeepEqual(got, again) {
		t.Error("report depends on the order of the plan")
	}
	for _, e := range got {
		if starved := e.ID == ISPSegment(0) || e.ID == ISPSegment(7); starved && e.Observed {
			t.Errorf("starved %s = %+v; want declared and unobserved", e.ID, e)
		}
	}
	if n := len(got); n != 12+4+8 {
		t.Errorf("report has %d segments, want 12 ISPs (2 starved) + 4 transit + 8 servers", n)
	}
}

// BenchmarkBuildPathMatrix is the identifiability pass at campaign_bulk's
// size: 20 000 sessions over 88 distinct (ISP, server) routes.
func BenchmarkBuildPathMatrix(b *testing.B) {
	c := NewCampaign("bench", experiments.FleetCampaignSpec{StarvedISPs: []int{5}, Sessions: 20000, Seed: 1})
	topo, plan := c.Topology(), c.Plan()
	b.Run("sessions=20000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := BuildPathMatrix(topo, plan); m.Paths() != 88 {
				b.Fatalf("%d distinct routes, want 88", m.Paths())
			}
		}
	})
}

// TestJobSpecsValidAndFaithful: rendered job specs pass service
// validation and encode the plan faithfully.
func TestJobSpecsValidAndFaithful(t *testing.T) {
	c := NewCampaign("camp-a", experiments.FleetCampaignSpec{
		ISPs: 4, Servers: 2, ThrottledISPs: []int{1}, StarvedISPs: []int{2},
		Sessions: 12, SeedPool: 3, Seed: 5,
	})
	plan := c.Plan()
	specs := c.JobSpecs()
	if len(specs) != len(plan) {
		t.Fatalf("%d specs for %d sessions", len(specs), len(plan))
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Fatalf("spec %d invalid: %v", i, err)
		}
		sess := plan[i]
		if sp.Seed != sess.Spec.Seed || sp.Fleet.Session != sess.Index ||
			sp.Fleet.ISP != sess.ISP || sp.Fleet.Server != sess.Server ||
			sp.Fleet.Campaign != "camp-a" {
			t.Fatalf("spec %d does not match session: %+v vs %+v", i, sp, sess)
		}
		wantPlacement := "noncommon"
		if sess.Throttled {
			wantPlacement = "common"
		}
		if sp.Sim.Placement != wantPlacement || sp.Sim.Duration != sess.Spec.Duration {
			t.Fatalf("spec %d sim payload mismatch: %+v", i, sp.Sim)
		}
	}
	// The plan itself is reproducible.
	if !reflect.DeepEqual(plan, c.Plan()) {
		t.Error("Plan() is not deterministic")
	}
}
