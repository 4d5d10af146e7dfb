package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/trace"
)

// TestFreelistNoRecycledPacketObserved drives a lossy scenario (drops at
// the limiter and the link recycle packets while traffic is still flowing)
// and asserts the aliasing contract: no hop, meter, or receiver ever
// observes a packet that is currently in the freelist.
func TestFreelistNoRecycledPacketObserved(t *testing.T) {
	var eng Engine
	observed := 0
	check := func(where string) func(*Packet) {
		return func(pkt *Packet) {
			observed++
			if pkt.recycled {
				t.Fatalf("%s observed a recycled packet (flow %d seq %d)",
					where, pkt.Flow, pkt.Seq)
			}
		}
	}

	var flow *UDPFlow
	end := HopFunc(func(pkt *Packet) {
		check("receiver")(pkt)
		flow.Receiver().Send(pkt)
	})
	meter := &Tap{Next: end, Fn: check("egress meter")}
	link := NewLink(&eng, "l", 4e6, 5*time.Millisecond, meter)
	rl := NewRateLimiter(&eng, "tbf", 1e6, 3000, 2000, link)
	rl.OnDrop = func(pkt *Packet, where string) { check("drop hook")(pkt) }
	ingress := &Tap{Next: rl, Fn: check("ingress meter")}

	tr, err := trace.Generate("zoom", rand.New(rand.NewSource(7)), 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	flow = NewUDPFlow(&eng, 1, ClassDifferentiated, ingress)
	flow.Start(tr, 0)
	eng.Run(30 * time.Second)

	if observed == 0 {
		t.Fatal("meters observed no packets")
	}
	if eng.reuseCount == 0 {
		t.Fatal("freelist never recycled a packet in a lossy run")
	}
	// Steady state: the fresh-allocation working set must be far below the
	// number of packets sent.
	fresh := eng.allocCount - eng.reuseCount
	if fresh*4 > flow.SentCount {
		t.Errorf("working set %d packets for %d sends; freelist not recycling",
			fresh, flow.SentCount)
	}
}

// TestFreelistDoubleFreePanics pins the double-free guard.
func TestFreelistDoubleFreePanics(t *testing.T) {
	var eng Engine
	p := eng.AllocPacket()
	eng.FreePacket(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double FreePacket did not panic")
		}
	}()
	eng.FreePacket(p)
}

// TestFreelistAllocResets: a recycled packet comes back fully zeroed.
func TestFreelistAllocResets(t *testing.T) {
	var eng Engine
	p := eng.AllocPacket()
	p.Flow, p.Seq, p.Size = 9, 99, 999
	p.Class = ClassDifferentiated
	p.Retransmission = true
	p.PolicyKey = "m"
	p.QueuedFor = time.Second
	eng.FreePacket(p)
	q := eng.AllocPacket()
	if q != p {
		t.Fatal("freelist did not recycle the freed packet")
	}
	if *q != (Packet{}) {
		t.Errorf("recycled packet not reset: %+v", *q)
	}
}

// TestFreelistScenarioBackgroundRecycles: background packets die at the
// scenario demux/join and must feed the freelist, bounding the working set
// of an open-loop source.
func TestFreelistScenarioBackgroundRecycles(t *testing.T) {
	var eng Engine
	sc := NewScenario(&eng, 1, CommonSpec{
		Rate:   8e6,
		BgRate: 6e6,
	}, PathSpec{RTT: 30 * time.Millisecond, BgRate: 4e6, BgDiffFraction: 0.5})
	sc.StartBackground(0, 5*time.Second)
	eng.Run(6 * time.Second)

	var sent int64
	for _, bg := range sc.backgrounds {
		sent += bg.SentPackets
	}
	if sent == 0 {
		t.Fatal("background sent nothing")
	}
	fresh := eng.allocCount - eng.reuseCount
	if fresh*4 > sent {
		t.Errorf("working set %d packets for %d background sends; demux/join not recycling",
			fresh, sent)
	}
}

// freelistTrial is a lossy replay cut off at a horizon that leaves
// deliveries in flight on the link and a stream part-way through its
// schedule, the state a trial runner stops in.
type freelistTrial struct {
	Events          int
	Tx, Loss        []time.Duration
	Delivered       []DeliveryEvent
	Allocs, Pending int64
}

func runFreelistTrial(t *testing.T, eng *Engine) freelistTrial {
	t.Helper()
	tr, err := trace.Generate("zoom", rand.New(rand.NewSource(7)), 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var flow *UDPFlow
	end := HopFunc(func(pkt *Packet) { flow.Receiver().Send(pkt) })
	link := NewLink(eng, "l", 4e6, 50*time.Millisecond, end)
	rl := NewRateLimiter(eng, "tbf", 1e6, 3000, 2000, link)
	flow = NewUDPFlow(eng, 1, ClassDifferentiated, rl)
	flow.Start(tr, 0)
	allocs := eng.allocCount
	out := freelistTrial{Events: eng.Run(2 * time.Second)}
	out.Tx, out.Loss, out.Delivered = flow.TxLog, flow.LossLog, flow.Delivered
	out.Allocs, out.Pending = eng.allocCount-allocs, int64(eng.Pending())
	return out
}

// TestRecycledFreelistReproducesTrial: an engine that adopts another
// engine's recycled packets — every field dirty — reproduces the same trial
// bit for bit, drawing on the freelist instead of allocating.
func TestRecycledFreelistReproducesTrial(t *testing.T) {
	var first Engine
	want := runFreelistTrial(t, &first)

	var donor, second Engine
	for i := 0; i < 64; i++ {
		p := donor.AllocPacket()
		*p = Packet{Flow: 9, Seq: int64(i), Size: 999, Class: ClassDifferentiated,
			Retransmission: true, PolicyKey: "stale", QueuedFor: time.Second}
		second.FreePacket(p)
	}
	got := runFreelistTrial(t, &second)
	if second.reuseCount == 0 {
		t.Fatal("second engine never drew on the adopted freelist")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trial on recycled packets differs: %d vs %d events, %d vs %d losses, %d vs %d deliveries",
			got.Events, want.Events, len(got.Loss), len(want.Loss), len(got.Delivered), len(want.Delivered))
	}
}
