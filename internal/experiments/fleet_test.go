package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestFleetCampaignSpecFilledCanonicalizes: a spec leaning on defaults
// and one spelling them out fill to the same value, index lists sorted and
// deduplicated and an empty list nil — fleet.NewCampaign stores the filled
// spec, so equal campaigns compare equal.
func TestFleetCampaignSpecFilledCanonicalizes(t *testing.T) {
	sparse := FleetCampaignSpec{ThrottledISPs: []int{5, 2, 5}, StarvedISPs: []int{}, Seed: 7}
	explicit := FleetCampaignSpec{
		ISPs: 12, Servers: 8, ThrottledISPs: []int{2, 5}, Sessions: 2048,
		App: TCPBulkApp, Duration: 45 * time.Second, SeedPool: 32, Seed: 7,
	}
	if got := sparse.Filled(); !reflect.DeepEqual(got, explicit) {
		t.Errorf("filled sparse spec = %+v, want %+v", got, explicit)
	}
	if got := explicit.Filled(); !reflect.DeepEqual(got, explicit) {
		t.Errorf("filling an explicit spec changed it: %+v", got)
	}
}

// TestSessionPlanDeterminism: the plan is a pure function of the spec —
// same spec, same plan — and starved ISPs really get zero sessions while
// every other ISP gets an even share and full server rotation.
func TestSessionPlanDeterminism(t *testing.T) {
	spec := FleetCampaignSpec{
		ThrottledISPs: []int{3},
		StarvedISPs:   []int{7},
		Sessions:      2200,
		Seed:          42,
	}
	plan := spec.SessionPlan()
	if !reflect.DeepEqual(plan, spec.SessionPlan()) {
		t.Fatal("SessionPlan is not deterministic")
	}
	if len(plan) != 2200 {
		t.Fatalf("got %d sessions; want 2200", len(plan))
	}
	perISP := make(map[int]int)
	servers := make(map[int]map[int]bool)
	seeds := make(map[int64]bool)
	for _, sess := range plan {
		perISP[sess.ISP]++
		if servers[sess.ISP] == nil {
			servers[sess.ISP] = make(map[int]bool)
		}
		servers[sess.ISP][sess.Server] = true
		seeds[sess.Spec.Seed] = true
		if sess.Throttled != (sess.ISP == 3) {
			t.Fatalf("session %d: Throttled=%v for ISP %d", sess.Index, sess.Throttled, sess.ISP)
		}
		if sess.Throttled != (sess.Spec.Placement == LimiterCommon) {
			t.Fatalf("session %d: placement %v does not encode plant", sess.Index, sess.Spec.Placement)
		}
	}
	if perISP[7] != 0 {
		t.Errorf("starved ISP 7 got %d sessions; want 0", perISP[7])
	}
	for isp := 0; isp < 12; isp++ {
		if isp == 7 {
			continue
		}
		if perISP[isp] == 0 {
			t.Errorf("ISP %d got no sessions", isp)
		}
		if len(servers[isp]) != 8 {
			t.Errorf("ISP %d covered %d servers; want all 8", isp, len(servers[isp]))
		}
	}
	// The seed pool bounds distinct sims: at most 2×SeedPool seeds.
	if len(seeds) > 2*32 {
		t.Errorf("%d distinct seeds; want ≤ %d", len(seeds), 2*32)
	}
}

// TestVerdictMatchesDetectSeed: Localize seeds its detector from
// DetectSeed(spec.Seed), which bench/ re-derives to trace the detector on
// its own, so the FNV constant is pinned here against silent drift.
func TestVerdictMatchesDetectSeed(t *testing.T) {
	if got, want := DetectSeed(0), int64(hash64("sim-detect")); got != want {
		t.Fatalf("DetectSeed(0) = %d; want FNV-1a(sim-detect) = %d", got, want)
	}
	if got := DetectSeed(99); got != 99^int64(hash64("sim-detect")) {
		t.Fatalf("DetectSeed(99) = %d; want seed^FNV-1a", got)
	}
}

// TestEvalCampaignWorkerInvariance: outcomes are identical at 1 and N
// workers (ForEach keeps plan order; verdict dedup is order-independent).
// A tiny short-duration campaign keeps this fast — verdicts may be
// degenerate at 2 s, but they must be *identically* degenerate.
func TestEvalCampaignWorkerInvariance(t *testing.T) {
	spec := FleetCampaignSpec{
		ISPs: 4, Servers: 2, ThrottledISPs: []int{1}, Sessions: 40,
		Duration: 2 * time.Second, SeedPool: 4, Seed: 9,
	}
	cache := NewSimCache()
	serial := Config{Workers: 1, Cache: cache}.EvalCampaign(spec)
	parallel := Config{Workers: 8, Cache: cache}.EvalCampaign(spec)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("EvalCampaign differs across worker counts")
	}
	if len(serial) != 40 {
		t.Fatalf("got %d outcomes; want 40", len(serial))
	}
}
