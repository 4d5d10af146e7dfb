package netsim

import (
	"testing"
	"time"
)

func TestPerFlowLimiterSeparateBuckets(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	pf := NewPerFlowLimiter(&eng, "pf", 2e6, 2000, 0, col)
	drops := map[int]int{}
	pf.OnDrop = func(pkt *Packet, where string) { drops[pkt.Flow]++ }

	// Two flows each offering 4 Mbit/s: each gets its own 2 Mbit/s bucket,
	// so each loses ~half — unlike a shared bucket where they'd lose ~75%.
	interval := 2 * time.Millisecond
	n := int(4 * time.Second / interval)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * interval
		schedule(&eng, at, func() {
			pf.Send(&Packet{Flow: 1, Size: 1000, Class: ClassDifferentiated})
			pf.Send(&Packet{Flow: 2, Size: 1000, Class: ClassDifferentiated})
		})
	}
	eng.Run(5 * time.Second)
	if pf.Flows != 2 {
		t.Fatalf("buckets = %d, want 2", pf.Flows)
	}
	for _, flow := range []int{1, 2} {
		frac := float64(drops[flow]) / float64(n)
		if frac < 0.4 || frac > 0.6 {
			t.Errorf("flow %d drop fraction %v, want ≈0.5 (own bucket)", flow, frac)
		}
	}
	if pf.Bucket("1") == nil || pf.Bucket("2") == nil || pf.Bucket("3") != nil {
		t.Error("bucket lookup")
	}
}

func TestPerFlowLimiterMergedKeyShares(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	pf := NewPerFlowLimiter(&eng, "pf", 2e6, 2000, 0, col)
	drops := 0
	pf.OnDrop = func(*Packet, string) { drops++ }

	interval := 2 * time.Millisecond
	n := int(4 * time.Second / interval)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * interval
		schedule(&eng, at, func() {
			pf.Send(&Packet{Flow: 1, Size: 1000, Class: ClassDifferentiated, PolicyKey: "m"})
			pf.Send(&Packet{Flow: 2, Size: 1000, Class: ClassDifferentiated, PolicyKey: "m"})
		})
	}
	eng.Run(5 * time.Second)
	if pf.Flows != 1 {
		t.Fatalf("buckets = %d, want 1 (merged)", pf.Flows)
	}
	// 8 Mbit/s offered into one 2 Mbit/s bucket → ~75% dropped.
	frac := float64(drops) / float64(2*n)
	if frac < 0.65 || frac > 0.85 {
		t.Errorf("merged drop fraction %v, want ≈0.75", frac)
	}
}

func TestPerFlowLimiterBypassesDefaultClass(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	pf := NewPerFlowLimiter(&eng, "pf", 1e3, 100, 0, col)
	schedule(&eng, 0, func() {
		for i := 0; i < 20; i++ {
			pf.Send(&Packet{Flow: 1, Size: 1500, Class: ClassDefault})
		}
	})
	eng.Run(time.Second)
	if len(col.pkts) != 20 {
		t.Errorf("default class interfered with: %d delivered", len(col.pkts))
	}
	if pf.Flows != 0 {
		t.Errorf("default class created %d buckets", pf.Flows)
	}
}

func TestFlowKey(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 42: "42", -3: "-3", 1000: "1000"}
	for in, want := range cases {
		if got := flowKey(in); got != want {
			t.Errorf("flowKey(%d) = %q, want %q", in, got, want)
		}
	}
}
