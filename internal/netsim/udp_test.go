package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/trace"
)

func TestUDPReplayLosslessDeliversEverything(t *testing.T) {
	var eng Engine
	tr, err := trace.Generate("zoom", rand.New(rand.NewSource(1)), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var flow *UDPFlow
	end := HopFunc(func(pkt *Packet) { flow.Receiver().Send(pkt) })
	link := NewLink(&eng, "l", 0, 10*time.Millisecond, end)
	flow = NewUDPFlow(&eng, 1, ClassDefault, link)
	flow.Start(tr, 0)
	eng.Run(10 * time.Second)
	flow.Finish(eng.Now())

	want := int64(tr.Count(trace.ServerToClient))
	if flow.SentCount != want {
		t.Errorf("sent %d, want %d", flow.SentCount, want)
	}
	if flow.RecvCount != want {
		t.Errorf("received %d, want %d", flow.RecvCount, want)
	}
	if len(flow.LossLog) != 0 {
		t.Errorf("losses on lossless path: %d", len(flow.LossLog))
	}
	if got := flow.DeliveredBytes(); got != tr.TotalBytes(trace.ServerToClient) {
		t.Errorf("delivered %d bytes, want %d", got, tr.TotalBytes(trace.ServerToClient))
	}
}

func TestUDPLossDetectionMatchesGroundTruth(t *testing.T) {
	var eng Engine
	tr, err := trace.Generate("webex", rand.New(rand.NewSource(2)), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var flow *UDPFlow
	end := HopFunc(func(pkt *Packet) { flow.Receiver().Send(pkt) })
	link := NewLink(&eng, "l", 0, 10*time.Millisecond, end)
	// Policer at half the trace rate → heavy, countable loss.
	rate := tr.AvgRate(trace.ServerToClient) / 2
	rl := NewRateLimiter(&eng, "tbf", rate, BurstForRTT(rate, 20*time.Millisecond), 0, link)
	truth := 0
	rl.OnDrop = func(*Packet, string) { truth++ }
	flow = NewUDPFlow(&eng, 1, ClassDifferentiated, rl)
	flow.Start(tr, 0)
	eng.Run(25 * time.Second)
	flow.Finish(eng.Now())

	if truth == 0 {
		t.Fatal("policer dropped nothing")
	}
	// Client-side gap detection must count exactly the ground truth.
	if len(flow.LossLog) != truth {
		t.Errorf("client counted %d losses, ground truth %d", len(flow.LossLog), truth)
	}
	if got := flow.LossRate(); math.Abs(got-0.5) > 0.1 {
		t.Errorf("loss rate = %v, want ≈0.5 (2x policing)", got)
	}
}

func TestUDPLossRegistrationLagsDrops(t *testing.T) {
	// A dropped packet is registered only when the next packet arrives:
	// registration times must be strictly within the arrival stream.
	var eng Engine
	var flow *UDPFlow
	end := HopFunc(func(pkt *Packet) { flow.Receiver().Send(pkt) })
	link := NewLink(&eng, "l", 0, 5*time.Millisecond, end)
	flow = NewUDPFlow(&eng, 1, ClassDefault, link)
	// Hand-built schedule: drop seq 1 by sending it to Discard.
	schedule(&eng, 0, func() { flow.transmit(0, 100) })
	schedule(&eng, 10*time.Millisecond, func() {
		flow.SentCount++
		flow.TxLog = append(flow.TxLog, eng.Now())
		// seq 1 vanishes (never enters the link)
	})
	schedule(&eng, 20*time.Millisecond, func() { flow.transmit(2, 100) })
	flow.totalScheduled = 3
	eng.Run(time.Second)

	if len(flow.LossLog) != 1 {
		t.Fatalf("loss log = %v", flow.LossLog)
	}
	// Registered when seq 2 arrived: 20 ms send + 5 ms delay.
	if got, want := flow.LossLog[0], 25*time.Millisecond; got != want {
		t.Errorf("registered at %v, want %v", got, want)
	}
}

func TestBackgroundRateAndClassMix(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	cfg := BackgroundConfig{MeanRate: 8e6, DiffFraction: 0.5, Stop: 10 * time.Second}
	bg, err := NewBackground(&eng, cfg, rand.New(rand.NewSource(3)), col)
	if err != nil {
		t.Fatal(err)
	}
	bg.Start(0)
	eng.Run(10 * time.Second)

	rate := float64(bg.SentBytes) * 8 / 10
	if math.Abs(rate-8e6)/8e6 > 0.15 {
		t.Errorf("mean rate = %.2f Mbit/s, want ≈8", rate/1e6)
	}
	frac := float64(bg.DiffPackets) / float64(bg.SentPackets)
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("diff fraction = %v, want ≈0.5", frac)
	}
}

func TestBackgroundRateIsModulated(t *testing.T) {
	// Per-second rates must vary substantially around the mean (that
	// variation is what creates loss-rate trends).
	var eng Engine
	perSec := make([]int64, 20)
	sink := HopFunc(func(pkt *Packet) {
		s := int(eng.Now() / time.Second)
		if s < len(perSec) {
			perSec[s] += int64(pkt.Size)
		}
	})
	cfg := BackgroundConfig{MeanRate: 8e6, Stop: 20 * time.Second, ModSpread: 0.6}
	bg, err := NewBackground(&eng, cfg, rand.New(rand.NewSource(4)), sink)
	if err != nil {
		t.Fatal(err)
	}
	bg.Start(0)
	eng.Run(20 * time.Second)

	var minR, maxR float64 = math.Inf(1), 0
	for _, b := range perSec {
		r := float64(b) * 8
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR/minR < 1.25 {
		t.Errorf("rate barely varies: min %.2f max %.2f Mbit/s", minR/1e6, maxR/1e6)
	}
}

func TestBackgroundDeterminism(t *testing.T) {
	run := func() int64 {
		var eng Engine
		cfg := BackgroundConfig{MeanRate: 5e6, DiffFraction: 0.3, Stop: 3 * time.Second}
		bg, err := NewBackground(&eng, cfg, rand.New(rand.NewSource(9)), Discard)
		if err != nil {
			t.Fatal(err)
		}
		bg.Start(0)
		eng.Run(3 * time.Second)
		return bg.SentBytes
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic background: %d vs %d", a, b)
	}
}
