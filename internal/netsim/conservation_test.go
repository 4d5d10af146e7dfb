package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/nal-epfl/wehey/internal/trace"
)

// TestUDPPacketConservation: every transmitted datagram is either
// delivered or dropped once the pipe drains — across random limiter
// configurations.
func TestUDPPacketConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var eng Engine
		rate := 0.5e6 + rng.Float64()*4e6
		burst := 1500 + rng.Intn(20000)
		queue := rng.Intn(2) * rng.Intn(30000)

		var flow *UDPFlow
		end := HopFunc(func(pkt *Packet) { flow.Receiver().Send(pkt) })
		link := NewLink(&eng, "l", 5e6+rng.Float64()*10e6, 10*time.Millisecond, end)
		rl := NewRateLimiter(&eng, "tbf", rate, burst, queue, link)
		drops := 0
		rl.OnDrop = func(*Packet, string) { drops++ }
		linkDrops := 0
		link.OnDrop = func(*Packet, string) { linkDrops++ }

		tr, err := trace.Generate("zoom", rng, 4*time.Second)
		if err != nil {
			return false
		}
		flow = NewUDPFlow(&eng, 1, ClassDifferentiated, rl)
		flow.Start(tr, 0)
		eng.Run(30 * time.Second) // drain fully
		return flow.SentCount == flow.RecvCount+int64(drops)+int64(linkDrops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTCPPacketConservation: transmissions = unique deliveries + duplicate
// deliveries + drops + residual in flight (zero after drain for a
// byte-bounded transfer).
func TestTCPPacketConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var eng Engine
		rate := 1e6 + rng.Float64()*4e6
		var flow *TCPFlow
		end := HopFunc(func(pkt *Packet) { flow.Receiver().Send(pkt) })
		link := NewLink(&eng, "l", 0, 15*time.Millisecond, end)
		rl := NewRateLimiter(&eng, "tbf", rate, BurstForRTT(rate, 30*time.Millisecond), 0, link)
		drops := 0
		rl.OnDrop = func(*Packet, string) { drops++ }

		flow = NewTCPFlow(&eng, 1, TCPConfig{
			Pacing: true, Class: ClassDifferentiated,
			Bytes: int64(100+rng.Intn(400)) * 1400,
		}, rl, 15*time.Millisecond)
		flow.Start(0)
		eng.Run(120 * time.Second) // generous: transfer must complete

		delivered := int64(len(flow.Delivered)) + flow.DupDeliver
		return flow.TxCount == delivered+int64(drops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestTCPTransferCompletes: a byte-bounded transfer through a policer
// always completes (reliability invariant), delivering exactly the
// requested bytes.
func TestTCPTransferCompletes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var eng Engine
		rate := 1e6 + rng.Float64()*2e6
		var flow *TCPFlow
		end := HopFunc(func(pkt *Packet) { flow.Receiver().Send(pkt) })
		link := NewLink(&eng, "l", 0, 10*time.Millisecond, end)
		rl := NewRateLimiter(&eng, "tbf", rate, BurstForRTT(rate, 20*time.Millisecond), 0, link)
		total := int64(50+rng.Intn(200)) * 1400
		flow = NewTCPFlow(&eng, 1, TCPConfig{
			Pacing: true, Class: ClassDifferentiated, Bytes: total,
		}, rl, 10*time.Millisecond)
		flow.Start(0)
		eng.Run(180 * time.Second)
		return flow.DeliveredBytes() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestEngineEventOrderProperty: events always fire in non-decreasing time
// order regardless of insertion order.
func TestEngineEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var eng Engine
		var fired []time.Duration
		for _, v := range raw {
			at := time.Duration(v) * time.Microsecond
			schedule(&eng, at, func() { fired = append(fired, eng.Now()) })
		}
		eng.Run(time.Second)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
