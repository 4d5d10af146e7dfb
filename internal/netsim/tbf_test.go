package netsim

import (
	"math"
	"testing"
	"time"
)

func TestRateLimiterBypassesDefaultClass(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	rl := NewRateLimiter(&eng, "tbf", 1e6, 1500, 0, col)
	schedule(&eng, 0, func() {
		for i := 0; i < 50; i++ {
			rl.Send(&Packet{Seq: int64(i), Size: 1500, Class: ClassDefault})
		}
	})
	eng.Run(time.Second)
	if len(col.pkts) != 50 {
		t.Fatalf("delivered %d, want all 50 (bypass)", len(col.pkts))
	}
	if rl.Bypassed != 50 || rl.Matched != 0 {
		t.Errorf("counters: bypassed=%d matched=%d", rl.Bypassed, rl.Matched)
	}
}

func TestRateLimiterPolicesAtConfiguredRate(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	// 2 Mbit/s policer (queue 0 → pure policer), burst of one packet.
	rl := NewRateLimiter(&eng, "tbf", 2e6, 1500, 0, col)
	drops := 0
	rl.OnDrop = func(*Packet, string) { drops++ }
	// Offer 4 Mbit/s of 1000-byte class-1 packets for 10 s.
	interval := 2 * time.Millisecond
	n := int(10 * time.Second / interval)
	for i := 0; i < n; i++ {
		schedule(&eng, time.Duration(i)*interval, func() {
			rl.Send(&Packet{Size: 1000, Class: ClassDifferentiated})
		})
	}
	eng.Run(11 * time.Second)
	gotRate := float64(len(col.pkts)) * 1000 * 8 / 10
	if math.Abs(gotRate-2e6)/2e6 > 0.05 {
		t.Errorf("forwarded rate = %.0f, want ≈2e6", gotRate)
	}
	// Offered 2x rate → ~half dropped.
	frac := float64(drops) / float64(n)
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("drop fraction = %v, want ≈0.5", frac)
	}
	if rl.Dropped != int64(drops) {
		t.Errorf("counter mismatch: %d vs %d", rl.Dropped, drops)
	}
}

func TestRateLimiterShaperDelaysInsteadOfDropping(t *testing.T) {
	var eng Engine
	polCol := &collector{eng: &eng}
	shpCol := &collector{eng: &eng}
	burst := 1500
	policer := NewRateLimiter(&eng, "pol", 2e6, burst, 0, polCol)
	shaper := NewRateLimiter(&eng, "shp", 2e6, burst, 60000, shpCol)
	polDrops, shpDrops := 0, 0
	policer.OnDrop = func(*Packet, string) { polDrops++ }
	shaper.OnDrop = func(*Packet, string) { shpDrops++ }
	interval := 3 * time.Millisecond // 1000B/3ms ≈ 2.67 Mbit/s, 1.33x rate
	n := int(6 * time.Second / interval)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * interval
		schedule(&eng, at, func() {
			policer.Send(&Packet{Size: 1000, Class: ClassDifferentiated})
			shaper.Send(&Packet{Size: 1000, Class: ClassDifferentiated})
		})
	}
	eng.Run(8 * time.Second)
	if shpDrops >= polDrops {
		t.Errorf("shaper drops %d should be below policer drops %d", shpDrops, polDrops)
	}
	// The shaper must have introduced queueing delay on some packets.
	var maxQ time.Duration
	for _, p := range shpCol.pkts {
		if p.QueuedFor > maxQ {
			maxQ = p.QueuedFor
		}
	}
	if maxQ < 10*time.Millisecond {
		t.Errorf("shaper max queueing delay = %v, want substantial", maxQ)
	}
	// Shaper output still respects the token rate overall.
	gotRate := float64(len(shpCol.pkts)) * 1000 * 8 / 6
	if gotRate > 2e6*1.1 {
		t.Errorf("shaper output rate %.0f exceeds configured 2e6", gotRate)
	}
}

func TestRateLimiterBurstAllowsInitialBurst(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	// Big bucket: 10 packets of burst available immediately.
	rl := NewRateLimiter(&eng, "tbf", 1e6, 10*1000, 0, col)
	schedule(&eng, 0, func() {
		for i := 0; i < 12; i++ {
			rl.Send(&Packet{Seq: int64(i), Size: 1000, Class: ClassDifferentiated})
		}
	})
	eng.Run(time.Millisecond)
	if len(col.pkts) != 10 {
		t.Errorf("burst passed %d packets, want exactly 10", len(col.pkts))
	}
}

func TestRateLimiterInactivePassesEverything(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	rl := NewRateLimiter(&eng, "tbf", 1e3, 100, 0, col)
	rl.Active = false
	schedule(&eng, 0, func() {
		for i := 0; i < 30; i++ {
			rl.Send(&Packet{Size: 1500, Class: ClassDifferentiated})
		}
	})
	eng.Run(time.Second)
	if len(col.pkts) != 30 {
		t.Errorf("inactive limiter interfered: delivered %d", len(col.pkts))
	}
}

func TestRateLimiterCustomClassifier(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	rl := NewRateLimiter(&eng, "tbf", 1e6, 1000, 0, col)
	rl.Classify = func(pkt *Packet) Class {
		if pkt.Flow == 7 {
			return ClassDifferentiated
		}
		return ClassDefault
	}
	schedule(&eng, 0, func() {
		for i := 0; i < 10; i++ {
			rl.Send(&Packet{Flow: 7, Size: 1000})
			rl.Send(&Packet{Flow: 8, Size: 1000})
		}
	})
	eng.Run(time.Second)
	if rl.Matched != 10 || rl.Bypassed != 10 {
		t.Errorf("classifier: matched=%d bypassed=%d", rl.Matched, rl.Bypassed)
	}
}

func TestRateLimiterZeroRateTerminates(t *testing.T) {
	// A zero-rate TBF never earns tokens. Pre-fix, the first packet that
	// outlived the burst was queued and scheduleDrain computed wait = 0,
	// respinning evTBFDrain at the same instant forever — this test hung.
	var eng Engine
	col := &collector{eng: &eng}
	rl := NewRateLimiter(&eng, "tbf", 0, 3000, 60000, col)
	for i := 0; i < 20; i++ {
		schedule(&eng, time.Duration(i)*time.Millisecond, func() {
			rl.Send(&Packet{Size: 1000, Class: ClassDifferentiated})
		})
	}
	eng.Run(time.Second)
	if eng.Pending() != 0 {
		t.Errorf("engine left %d events pending", eng.Pending())
	}
	// The initial burst (3 packets) forwards; everything after is dropped.
	if len(col.pkts) != 3 {
		t.Errorf("forwarded %d packets, want the 3-packet burst", len(col.pkts))
	}
	if rl.Dropped != 17 {
		t.Errorf("dropped %d, want 17", rl.Dropped)
	}
	if rl.QueueBytes() != 0 {
		t.Errorf("queue holds %d bytes, want 0 (zero-rate TBF must not park packets)", rl.QueueBytes())
	}
}

func TestRateLimiterRateZeroedMidRunDropsQueue(t *testing.T) {
	// Rate zeroed while packets sit in the queue: the drain path must drop
	// them instead of spinning.
	var eng Engine
	col := &collector{eng: &eng}
	rl := NewRateLimiter(&eng, "tbf", 1e6, 1500, 60000, col)
	drops := 0
	rl.OnDrop = func(pkt *Packet, _ string) {
		drops++
		if pkt.QueuedFor < 0 {
			t.Errorf("dropped packet has open queue-delay interval: %v", pkt.QueuedFor)
		}
	}
	schedule(&eng, 0, func() {
		for i := 0; i < 10; i++ {
			rl.Send(&Packet{Size: 1500, Class: ClassDifferentiated})
		}
	})
	schedule(&eng, time.Millisecond, func() { rl.Rate = 0 })
	eng.Run(time.Second)
	if eng.Pending() != 0 {
		t.Errorf("engine left %d events pending", eng.Pending())
	}
	if rl.QueueBytes() != 0 {
		t.Errorf("queue holds %d bytes after rate was zeroed", rl.QueueBytes())
	}
	if drops == 0 {
		t.Error("no drops observed for the parked queue")
	}
	if got := int64(len(col.pkts)) + rl.Dropped; got != 10 {
		t.Errorf("forwarded+dropped = %d, want 10 (conservation)", got)
	}
}

func TestBurstForRTT(t *testing.T) {
	// 8 Mbit/s × 50 ms = 50 KB.
	if got := BurstForRTT(8e6, 50*time.Millisecond); got != 50000 {
		t.Errorf("BurstForRTT = %d, want 50000", got)
	}
	if got := BurstForRTT(1, time.Millisecond); got != MTU {
		t.Errorf("tiny burst should clamp to MTU, got %d", got)
	}
}
