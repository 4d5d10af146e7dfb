package service

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/experiments"
)

// runToDone submits specs to a fresh scheduler with the given worker
// count and returns their results in spec order.
func runToDone(t *testing.T, backends map[string]Backend, workers int, specs []Spec) []*Result {
	t.Helper()
	s, err := NewScheduler(Options{
		Workers:  workers,
		Retry:    RetryPolicy{MaxAttempts: 1},
		Backends: backends,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}
	results := make([]*Result, len(specs))
	for i, id := range ids {
		got := waitJob(t, s, id, func(j Job) bool { return j.State.Terminal() })
		if got.State != StateDone || got.Result == nil {
			t.Fatalf("job %s = %s (%s), want done with a result", id, got.State, got.Error)
		}
		results[i] = got.Result
	}
	return results
}

// TestDefaultSimJobLocalizes: a sim job that names no duration replays
// long enough for the loss-trend correlation to localize a common
// limiter, and a non-common one stays unlocalized.
func TestDefaultSimJobLocalizes(t *testing.T) {
	var specs []Spec
	for seed := int64(1); seed <= 3; seed++ {
		specs = append(specs,
			Spec{Backend: BackendSim, Seed: seed, Sim: &SimJob{}},
			Spec{Backend: BackendSim, Seed: seed, Sim: &SimJob{Placement: "noncommon"}})
	}
	results := runToDone(t, map[string]Backend{BackendSim: NewSimBackend(nil)}, 2, specs)
	for i, r := range results {
		common := specs[i].Sim.Placement == ""
		if r.LocalizedToISP != common {
			t.Errorf("seed %d placement %q: localized = %v (%s), want %v",
				specs[i].Seed, specs[i].Sim.Placement, r.LocalizedToISP, r.Detail, common)
		}
		if common && r.Evidence != "shared bottleneck" {
			t.Errorf("seed %d: evidence = %q, want shared bottleneck", specs[i].Seed, r.Evidence)
		}
	}
}

// TestDefaultTestbedJobsLocalize: testbed jobs at the service defaults
// localize the middlebox's per-client limiter through the throughput
// comparison. One seed is not a verdict test, and a real-socket replay
// localizes about 9 times in 10 on a 2-vCPU box: ten seeds run, five at
// a time, and at least six must agree (a chance failure rate of ~0.5%).
func TestDefaultTestbedJobsLocalize(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds of real-socket replays")
	}
	var specs []Spec
	for seed := int64(1); seed <= 10; seed++ {
		specs = append(specs, Spec{Backend: BackendTestbed, Seed: seed, Testbed: &TestbedJob{}})
	}
	localized := 0
	for i, r := range runToDone(t, map[string]Backend{BackendTestbed: &TestbedBackend{}}, 5, specs) {
		if r.LocalizedToISP && r.Evidence == "per-client bottleneck" {
			localized++
		} else {
			t.Logf("seed %d: %s (evidence %q)", specs[i].Seed, r.Detail, r.Evidence)
		}
	}
	if localized < 6 {
		t.Errorf("%d of %d default testbed jobs localized; want at least 6", localized, len(specs))
	}
}

// TestSimResultIsTheLocalizeVerdict: the sim backend reports exactly
// resultOf of Config.Localize for the SimSpec its job spec stands for, and
// Config.Verdict is that result's projection — the invariant bench/
// checks on every session it serves.
func TestSimResultIsTheLocalizeVerdict(t *testing.T) {
	cache := experiments.NewSimCache()
	backend := NewSimBackend(cache)
	cfg := experiments.Config{Cache: cache}
	cases := []struct {
		job SimJob
		sim experiments.SimSpec
	}{
		{SimJob{}, experiments.SimSpec{
			App: experiments.TCPBulkApp, Duration: 45 * time.Second, Seed: 1}},
		{SimJob{Placement: "noncommon", Duration: 12 * time.Second}, experiments.SimSpec{
			App: experiments.TCPBulkApp, Placement: experiments.LimiterNonCommon, Duration: 12 * time.Second, Seed: 2}},
		{SimJob{App: "zoom", Placement: "common", InputFactor: 2, Duration: 20 * time.Second}, experiments.SimSpec{
			App: "zoom", InputFactor: 2, Duration: 20 * time.Second, Seed: 3}},
	}
	for _, c := range cases {
		got, err := backend.Run(context.Background(), Spec{Backend: BackendSim, Seed: c.sim.Seed, Sim: &c.job})
		if err != nil {
			t.Fatal(err)
		}
		v, err := cfg.Localize(c.sim)
		if err != nil {
			t.Fatal(err)
		}
		if want := resultOf(BackendSim, v); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Run = %+v, want %+v", c.job, got, want)
		}
		sv, err := cfg.Verdict(c.sim)
		if err != nil {
			t.Fatal(err)
		}
		if proj := (experiments.SimVerdict{LocalizedToISP: got.LocalizedToISP, Evidence: got.Evidence, LossRate: got.LossRates}); sv != proj {
			t.Errorf("%+v: Verdict = %+v, want the result's projection %+v", c.job, sv, proj)
		}
	}
}
