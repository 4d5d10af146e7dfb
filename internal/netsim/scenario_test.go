package netsim

import (
	"testing"
	"time"
)

func TestScenarioTwoPathsShareCommonLimiter(t *testing.T) {
	var eng Engine
	rate := 4e6
	rtt := 40 * time.Millisecond
	sc := NewScenario(&eng, 1, CommonSpec{
		Limiter: &LimiterSpec{Rate: rate, Burst: BurstForRTT(rate, rtt)},
	},
		PathSpec{RTT: rtt},
		PathSpec{RTT: rtt},
	)
	flows := make([]*TCPFlow, 2)
	for i := range flows {
		cfg := TCPConfig{Pacing: true, Class: ClassDifferentiated, Stop: 20 * time.Second}
		flows[i] = NewTCPFlow(&eng, i+1, cfg, sc.Entry(i), sc.BackDelay(i))
		sc.Register(i+1, flows[i].Receiver())
	}
	for _, f := range flows {
		f.Start(0)
	}
	eng.Run(25 * time.Second)

	// The two flows share the 4 Mbit/s limiter: aggregate ≈ rate, and each
	// gets a nontrivial share.
	var agg float64
	for _, f := range flows {
		var bytes int64
		for _, d := range f.Delivered {
			if d.At >= 5*time.Second && d.At < 20*time.Second {
				bytes += int64(d.Bytes)
			}
		}
		share := float64(bytes) * 8 / 15
		agg += share
		if share < 0.5e6 {
			t.Errorf("flow starved: %.2f Mbit/s", share/1e6)
		}
	}
	if agg < 3.2e6 || agg > 4.4e6 {
		t.Errorf("aggregate = %.2f Mbit/s, want ≈4", agg/1e6)
	}
	if sc.TotalDrops("tbf_c") == 0 {
		t.Error("no drops at the common limiter")
	}
	if sc.TotalDrops("link_1")+sc.TotalDrops("link_2") != 0 {
		t.Error("unexpected drops on non-common links")
	}
}

func TestScenarioPathLocalBackgroundStaysOffCommonLink(t *testing.T) {
	var eng Engine
	sc := NewScenario(&eng, 2, CommonSpec{},
		PathSpec{RTT: 30 * time.Millisecond, Rate: 10e6, BgRate: 5e6},
		PathSpec{RTT: 30 * time.Millisecond},
	)
	// Count what crosses the common link by registering a catch-all flow.
	crossed := 0
	sc.Register(backgroundFlowID-1, HopFunc(func(*Packet) { crossed++ }))
	sc.StartBackground(0, 3*time.Second)
	eng.Run(4 * time.Second)
	if crossed != 0 {
		t.Errorf("%d path-local background packets crossed the join", crossed)
	}
	if sc.PathLink(0).Forwarded == 0 {
		t.Error("background did not traverse its own segment")
	}
}

func TestScenarioCommonBackgroundSharesLimiter(t *testing.T) {
	var eng Engine
	rate := 3e6
	sc := NewScenario(&eng, 3, CommonSpec{
		Limiter: &LimiterSpec{Rate: rate, Burst: 20000, Queue: 0},
		BgRate:  6e6, BgDiffFraction: 0.5,
	},
		PathSpec{RTT: 30 * time.Millisecond},
	)
	sc.StartBackground(0, 5*time.Second)
	eng.Run(6 * time.Second)
	if sc.CommonLim.Matched == 0 {
		t.Error("no background matched the differentiated class")
	}
	if sc.CommonLim.Bypassed == 0 {
		t.Error("no background bypassed the limiter")
	}
	if sc.TotalDrops("tbf_c") == 0 {
		t.Error("overloaded limiter did not drop")
	}
}

func TestScenarioRTTWiring(t *testing.T) {
	var eng Engine
	rtts := []time.Duration{10 * time.Millisecond, 120 * time.Millisecond}
	sc := NewScenario(&eng, 4, CommonSpec{},
		PathSpec{RTT: rtts[0]},
		PathSpec{RTT: rtts[1]},
	)
	for i, want := range rtts {
		i, want := i, want
		var flow *TCPFlow
		flow = NewTCPFlow(&eng, i+1, TCPConfig{Pacing: true, Bytes: 100 * 1400}, sc.Entry(i), sc.BackDelay(i))
		sc.Register(i+1, flow.Receiver())
		flow.Start(0)
		eng.Run(eng.Now() + 10*time.Second)
		if len(flow.RTTSamples) == 0 {
			t.Fatalf("path %d: no RTT samples", i)
		}
		minRTT := flow.RTTSamples[0]
		for _, s := range flow.RTTSamples {
			if s < minRTT {
				minRTT = s
			}
		}
		if minRTT != want {
			t.Errorf("path %d min RTT = %v, want %v", i, minRTT, want)
		}
		if got := sc.RTT(i); got != want {
			t.Errorf("RTT(%d) = %v", i, got)
		}
	}
}

func TestScenarioPathLimiters(t *testing.T) {
	var eng Engine
	spec := &LimiterSpec{Rate: 2e6, Burst: 10000, Queue: 0}
	sc := NewScenario(&eng, 5, CommonSpec{},
		PathSpec{RTT: 30 * time.Millisecond, Limiter: spec},
		PathSpec{RTT: 30 * time.Millisecond, Limiter: spec},
	)
	if sc.PathLimiter(0) == nil || sc.PathLimiter(1) == nil {
		t.Fatal("path limiters not installed")
	}
	if sc.CommonLim != nil {
		t.Fatal("unexpected common limiter")
	}
	var flow *UDPFlow
	flow = NewUDPFlow(&eng, 1, ClassDifferentiated, sc.Entry(0))
	sc.Register(1, flow.Receiver())
	// 4 Mbit/s offered against a 2 Mbit/s limiter on l_1.
	schedule(&eng, 0, func() {})
	for i := 0; i < 4000; i++ {
		i := i
		schedule(&eng, time.Duration(i)*2*time.Millisecond, func() { flow.transmit(int64(i), 1000) })
	}
	flow.totalScheduled = 4000
	eng.Run(10 * time.Second)
	flow.Finish(eng.Now())
	if got := flow.LossRate(); got < 0.3 || got > 0.7 {
		t.Errorf("loss rate through path limiter = %v, want ≈0.5", got)
	}
	if sc.TotalDrops("tbf_1") == 0 {
		t.Error("drops not attributed to tbf_1")
	}
}
