package validate

import (
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/twin"
)

// TestTwinMatchesSimAcrossGrid is the acceptance sweep: every fluid TBF
// prediction must land inside its tolerance band against packet-sim ground
// truth across the full rate×load×device grid.
func TestTwinMatchesSimAcrossGrid(t *testing.T) {
	grid := DefaultTBFGrid()
	if len(grid) < 20 {
		t.Fatalf("TBF grid has %d points, want >= 20", len(grid))
	}
	var report Report
	for _, pt := range grid {
		report.TBF = append(report.TBF, EvalTBFPoint(pt))
	}
	if n := report.ViolationCount(); n != 0 {
		t.Errorf("%d tolerance violations:\n%s", n, report.Render())
	}
}

// TestRunTBFPointZeroRateMirrorsNetsimFix pins the blackhole semantics the
// twin's Rate=0 branch models — the same 3-forward/17-drop split the
// netsim regression test (TestRateLimiterZeroRateTerminates) asserts.
func TestRunTBFPointZeroRateMirrorsNetsimFix(t *testing.T) {
	params := twin.TBFParams{
		Rate: 0, Burst: 3000, QueueLimit: 60000,
		PacketSize: 1000, Offered: 0.8e6, Horizon: time.Second,
	}
	meas := RunTBFPoint(params, CBR, 1)
	// 0.8 Mbit/s of 1000 B packets for 1 s = 100 packets; 3 forward.
	if want := 97.0 / 100; meas.LossRate != want {
		t.Errorf("loss = %v, want %v", meas.LossRate, want)
	}
	pred := twin.PredictTBF(params)
	if d := pred.LossRate - meas.LossRate; d > 0.02 || d < -0.02 {
		t.Errorf("model %v vs sim %v disagree beyond band", pred.LossRate, meas.LossRate)
	}
}
