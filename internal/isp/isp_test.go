package isp

import "testing"

func TestFiveISPsShape(t *testing.T) {
	ps := FiveISPs()
	if len(ps) != 5 {
		t.Fatalf("profiles = %d", len(ps))
	}
	for _, p := range ps {
		if p.PlanRate <= 0 || p.RTT <= 0 || p.UnthrottledRate <= p.PlanRate {
			t.Errorf("%s: implausible profile %+v", p.Name, p)
		}
	}
	if ps[4].TriggerRate == 0 {
		t.Error("ISP5 must be the conditional-throttling profile")
	}
}
