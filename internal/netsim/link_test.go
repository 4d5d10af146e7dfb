package netsim

import (
	"testing"
	"time"
)

// collector is a terminal hop that records arrivals.
type collector struct {
	eng  *Engine
	pkts []*Packet
	at   []time.Duration
}

func (c *collector) Send(pkt *Packet) {
	c.pkts = append(c.pkts, pkt)
	c.at = append(c.at, c.eng.Now())
}

func TestLinkSerializationAndDelay(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	// 8 Mbit/s, 10 ms propagation: a 1000-byte packet serializes in 1 ms.
	link := NewLink(&eng, "l", 8e6, 10*time.Millisecond, col)
	schedule(&eng, 0, func() { link.Send(&Packet{Size: 1000}) })
	eng.Run(time.Second)
	if len(col.pkts) != 1 {
		t.Fatalf("delivered %d", len(col.pkts))
	}
	if got, want := col.at[0], 11*time.Millisecond; got != want {
		t.Errorf("arrival at %v, want %v", got, want)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	link := NewLink(&eng, "l", 8e6, 0, col)
	schedule(&eng, 0, func() {
		link.Send(&Packet{Size: 1000}) // tx 1 ms
		link.Send(&Packet{Size: 1000}) // queued; tx 1 ms after first
	})
	eng.Run(time.Second)
	if len(col.at) != 2 {
		t.Fatalf("delivered %d", len(col.at))
	}
	if col.at[0] != time.Millisecond || col.at[1] != 2*time.Millisecond {
		t.Errorf("arrivals %v, want [1ms 2ms]", col.at)
	}
	// Second packet accrued ~1 ms of queueing delay.
	if q := col.pkts[1].QueuedFor; q != time.Millisecond {
		t.Errorf("QueuedFor = %v, want 1ms", q)
	}
	if col.pkts[0].QueuedFor != 0 {
		t.Errorf("first packet queued for %v", col.pkts[0].QueuedFor)
	}
}

func TestLinkTailDrop(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	link := NewLink(&eng, "l", 8e6, 0, col)
	link.QueueLimit = 1500 // one packet of queue
	var drops []*Packet
	link.OnDrop = func(pkt *Packet, where string) {
		if where != "l" {
			t.Errorf("drop at %q", where)
		}
		drops = append(drops, pkt)
	}
	schedule(&eng, 0, func() {
		link.Send(&Packet{Seq: 0, Size: 1000}) // transmitting
		link.Send(&Packet{Seq: 1, Size: 1000}) // queued
		link.Send(&Packet{Seq: 2, Size: 1000}) // dropped (queue full)
	})
	eng.Run(time.Second)
	if len(col.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(col.pkts))
	}
	if len(drops) != 1 || drops[0].Seq != 2 {
		t.Fatalf("drops = %v", drops)
	}
	if link.Dropped != 1 || link.Forwarded != 2 {
		t.Errorf("counters: dropped=%d forwarded=%d", link.Dropped, link.Forwarded)
	}
}

func TestLinkInfiniteRate(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	link := NewLink(&eng, "l", 0, 7*time.Millisecond, col)
	schedule(&eng, 0, func() {
		for i := 0; i < 100; i++ {
			link.Send(&Packet{Seq: int64(i), Size: 1500})
		}
	})
	eng.Run(time.Second)
	if len(col.at) != 100 {
		t.Fatalf("delivered %d", len(col.at))
	}
	for _, at := range col.at {
		if at != 7*time.Millisecond {
			t.Fatalf("infinite link delayed %v, want pure propagation", at)
		}
	}
}

func TestLinkUtilizationUnderLoad(t *testing.T) {
	// Offered 2x the link rate: goodput must saturate at ~link rate.
	var eng Engine
	col := &collector{eng: &eng}
	link := NewLink(&eng, "l", 8e6, 0, col) // 8 Mbit/s = 1000 B/ms
	link.OnDrop = func(*Packet, string) {}
	interval := 500 * time.Microsecond // 1000B per 0.5ms = 16 Mbit/s offered
	for i := 0; i < 2000; i++ {
		i := i
		schedule(&eng, time.Duration(i)*interval, func() {
			link.Send(&Packet{Seq: int64(i), Size: 1000})
		})
	}
	eng.Run(2 * time.Second)
	var bytes int
	for _, at := range col.at {
		if at <= time.Second { // only while load is offered
			bytes += 1000
		}
	}
	rate := float64(bytes) * 8 / 1.0
	if rate < 7.5e6 || rate > 8.5e6 {
		t.Errorf("saturated rate = %.0f, want ≈8e6", rate)
	}
}

// TestLinkStructLiteralQueueLimitDefault: a Link built as a struct literal
// (bypassing NewLink) with a positive Rate and an unset QueueLimit must get
// the 250 ms default lazily on first Send — not silently tail-drop every
// packet that finds the transmitter busy.
func TestLinkStructLiteralQueueLimitDefault(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	link := &Link{Name: "lit", Rate: 8e6, Next: col, eng: &eng}
	schedule(&eng, 0, func() {
		link.Send(&Packet{Seq: 0, Size: 1000}) // transmitting
		link.Send(&Packet{Seq: 1, Size: 1000}) // busy: must queue, not drop
	})
	eng.Run(time.Second)
	if len(col.pkts) != 2 {
		t.Fatalf("delivered %d of 2; zero-QueueLimit literal dropped queued packets", len(col.pkts))
	}
	if link.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", link.Dropped)
	}
	if want := defaultQueueLimit(8e6); link.QueueLimit != want {
		t.Errorf("QueueLimit = %d, want lazy default %d", link.QueueLimit, want)
	}
	// An explicitly configured limit must survive untouched.
	strict := &Link{Name: "strict", Rate: 8e6, QueueLimit: 1500, Next: col, eng: &eng}
	strict.Send(&Packet{Size: 1000})
	if strict.QueueLimit != 1500 {
		t.Errorf("explicit QueueLimit overwritten: %d", strict.QueueLimit)
	}
}

func TestTapAndDiscard(t *testing.T) {
	var eng Engine
	col := &collector{eng: &eng}
	seen := 0
	tap := &Tap{Next: col, Fn: func(*Packet) { seen++ }}
	tap.Send(&Packet{})
	if seen != 1 || len(col.pkts) != 1 {
		t.Error("tap did not observe/forward")
	}
	Discard.Send(&Packet{}) // must not panic
	nilTap := &Tap{}
	nilTap.Send(&Packet{}) // nil Next and Fn must not panic
}
