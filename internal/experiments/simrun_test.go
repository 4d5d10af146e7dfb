package experiments

import (
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/trace"
)

func TestRunSimFNRegimeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("45 s simulation")
	}
	misses := 0
	for seed := int64(1); seed <= 3; seed++ {
		res := RunSim(SimSpec{App: TCPBulkApp, InputFactor: 1.5, BgShare: 0.5, Seed: seed})
		v, err := decide(&res)
		if err != nil {
			t.Fatal(err)
		}
		if !v.LocalizedToISP {
			misses++
			lt := v.Detail.LossTrend
			t.Logf("seed %d: missed (%d/%d), loss rates %.3f/%.3f",
				seed, lt.Correlations, lt.Sizes, res.M1.LossRate(), res.M2.LossRate())
		}
	}
	if misses > 0 {
		t.Errorf("FN = %d/3 on the default §6.2 configuration; paper reports FN = 0", misses)
	}
}

func TestRunSimFNRegimeUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("45 s simulation")
	}
	res := RunSim(SimSpec{App: "zoom", InputFactor: 1.5, BgShare: 0.5, Seed: 7})
	v, err := decide(&res)
	if err != nil {
		t.Fatal(err)
	}
	if lt := v.Detail.LossTrend; !v.LocalizedToISP {
		t.Errorf("UDP FN on default config (%d/%d), loss %.3f/%.3f",
			lt.Correlations, lt.Sizes, res.M1.LossRate(), res.M2.LossRate())
	}
}

func TestRunSimFPRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("45 s simulations")
	}
	positives := 0
	const trials = 4
	for seed := int64(10); seed < 10+trials; seed++ {
		res := RunSim(SimSpec{App: TCPBulkApp, InputFactor: 1.5, BgShare: 0.5,
			Placement: LimiterNonCommon, Seed: seed})
		if res.Drops["tbf_c"] != 0 {
			t.Fatal("FP topology dropped at a (nonexistent) common limiter")
		}
		if res.Drops["tbf_1"] == 0 || res.Drops["tbf_2"] == 0 {
			t.Fatal("path limiters did not throttle")
		}
		v, err := decide(&res)
		if err != nil {
			t.Fatal(err)
		}
		if v.LocalizedToISP {
			positives++
		}
	}
	if positives > 1 {
		t.Errorf("FP = %d/%d under identical independent limiters; target ≤5%%", positives, trials)
	}
}

func TestRunSimCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("45 s simulation")
	}
	res := RunSim(SimSpec{App: TCPBulkApp, InputFactor: 1.5, BgShare: 0.5,
		CongestionFactor: 1.15, Seed: 3, Duration: 20 * time.Second})
	if res.Drops["link_1"] == 0 && res.Drops["link_2"] == 0 {
		t.Error("congested non-common links dropped nothing")
	}
}

// TestSimSpecValidateRejectsTCPTraces: only TCPBulkApp and the UDP trace
// profiles are runnable. run would replay a TCP video profile open-loop
// over a UDP flow, so Validate refuses every one of them.
func TestSimSpecValidateRejectsTCPTraces(t *testing.T) {
	for _, app := range append([]string{TCPBulkApp}, trace.RTCApps()...) {
		if err := (SimSpec{App: app}).Validate(); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
	for _, app := range trace.VideoApps() {
		if err := (SimSpec{App: app}).Validate(); err == nil {
			t.Errorf("%s: a TCP trace profile was accepted", app)
		}
	}
}
