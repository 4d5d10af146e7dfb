package validate

import (
	"testing"
)

// TestHybridBackgroundMatchesPacketGroundTruth is the equivalence gate for
// the fluid background mode (DESIGN.md §14): across the hybrid grid the
// fluid run's background loss, foreground loss, and foreground delay
// quantiles must land inside each point's band against the packet-granular
// run of the identical rate trajectory — and the full-rate point must show
// the ≥50x event saving the mode exists for.
func TestHybridBackgroundMatchesPacketGroundTruth(t *testing.T) {
	grid := DefaultHybridGrid()
	if len(grid) < 8 {
		t.Fatalf("hybrid grid has %d points, want >= 8", len(grid))
	}
	fullRateSeen := false
	for _, pt := range grid {
		rep := EvalHybridPoint(pt)
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", pt.Name, v)
		}
		if pt.Tol.MinEventRatio > 0 {
			fullRateSeen = true
			t.Logf("%s: packet %d events, fluid %d events (%.0fx)",
				pt.Name, rep.Packet.Events, rep.Fluid.Events, rep.EventRatio)
		}
	}
	if !fullRateSeen {
		t.Error("no grid point enforces the full-rate event-ratio gate")
	}
}
