package measure

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestPathValidateAndLossRate(t *testing.T) {
	p := &Path{RTT: ms(30), Duration: time.Second,
		Tx:   []time.Duration{0, ms(100), ms(200), ms(300)},
		Loss: []time.Duration{ms(150)}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.LossRate(); got != 0.25 {
		t.Errorf("LossRate = %v", got)
	}
	bad := &Path{RTT: ms(30), Duration: time.Second, Tx: []time.Duration{0}, Loss: []time.Duration{0, ms(1)}}
	if err := bad.Validate(); err == nil {
		t.Error("more losses than tx accepted")
	}
	if err := (&Path{RTT: ms(30)}).Validate(); err == nil {
		t.Error("zero duration accepted")
	}
	if err := (&Path{Duration: time.Second}).Validate(); err == nil {
		t.Error("zero RTT accepted")
	}
	if got := (&Path{}).LossRate(); got != 0 {
		t.Errorf("empty LossRate = %v", got)
	}
}

func TestBinThroughput(t *testing.T) {
	events := []Delivery{
		{At: ms(10), Bytes: 1000},
		{At: ms(110), Bytes: 2000},
		{At: ms(190), Bytes: 1000},
		{At: ms(999), Bytes: 500},
		{At: ms(1500), Bytes: 9999}, // outside window
	}
	th := BinThroughput(events, 0, time.Second, ms(100))
	if len(th.Samples) != 10 {
		t.Fatalf("samples = %d", len(th.Samples))
	}
	if th.Samples[0] != 1000*8/0.1 {
		t.Errorf("sample 0 = %v", th.Samples[0])
	}
	if th.Samples[1] != 3000*8/0.1 {
		t.Errorf("sample 1 = %v", th.Samples[1])
	}
	if th.Samples[9] != 500*8/0.1 {
		t.Errorf("sample 9 = %v", th.Samples[9])
	}
	// Mean over all bins.
	want := (1000 + 3000 + 500) * 8.0 / 0.1 / 10
	if got := th.Mean(); got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if (Throughput{}).Mean() != 0 {
		t.Error("empty mean")
	}
}

func TestBinThroughputPartialTailIgnored(t *testing.T) {
	// dur = 1.05 s with 100 ms intervals: 10 complete bins plus a 50 ms
	// partial tail. Arrivals in the tail must not be counted — they used to
	// be clamped into bin 9, inflating that sample.
	events := []Delivery{
		{At: ms(950), Bytes: 1000},  // bin 9 proper
		{At: ms(1020), Bytes: 4000}, // partial tail: ignored
		{At: ms(1049), Bytes: 4000}, // partial tail: ignored
	}
	th := BinThroughput(events, 0, ms(1050), ms(100))
	if len(th.Samples) != 10 {
		t.Fatalf("samples = %d, want 10 complete intervals", len(th.Samples))
	}
	if want := 1000 * 8 / 0.1; th.Samples[9] != want {
		t.Errorf("Samples[9] = %v, want %v (tail arrivals must not inflate the last bin)", th.Samples[9], want)
	}
}

func TestBinThroughputIntervalLargerThanDur(t *testing.T) {
	// Degenerate single-bin fallback: interval > dur keeps one bin covering
	// all of [0, dur).
	events := []Delivery{{At: ms(10), Bytes: 100}, {At: ms(90), Bytes: 100}}
	th := BinThroughput(events, 0, ms(100), ms(250))
	if len(th.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(th.Samples))
	}
	if want := 200 * 8 / 0.25; th.Samples[0] != want {
		t.Errorf("Samples[0] = %v, want %v", th.Samples[0], want)
	}
}

func TestWeHeThroughputUses100Intervals(t *testing.T) {
	th := WeHeThroughput([]Delivery{{At: ms(500), Bytes: 100}}, 0, 10*time.Second)
	if len(th.Samples) != WeHeIntervals {
		t.Errorf("intervals = %d", len(th.Samples))
	}
}

func TestSumSamples(t *testing.T) {
	got := SumSamples([]float64{1, 2, 3}, []float64{10, 20})
	if len(got) != 2 || got[0] != 11 || got[1] != 22 {
		t.Errorf("SumSamples = %v", got)
	}
}

func TestFilteredLossRates(t *testing.T) {
	// Construct two paths with controlled per-interval counts over 1 s with
	// σ = 100 ms: interval k gets k+10 transmissions on both paths.
	mk := func(lossIvals map[int]int) *Path {
		p := &Path{RTT: ms(10), Duration: time.Second}
		for k := 0; k < 10; k++ {
			for i := 0; i < 20; i++ {
				p.Tx = append(p.Tx, time.Duration(k)*ms(100)+time.Duration(i)*ms(4))
			}
			for i := 0; i < lossIvals[k]; i++ {
				p.Loss = append(p.Loss, time.Duration(k)*ms(100)+ms(50))
			}
		}
		return p
	}
	p1 := mk(map[int]int{0: 2, 3: 4})
	p2 := mk(map[int]int{0: 1, 5: 2})
	r1, r2 := FilteredLossRates(p1, p2, ms(100), 10)
	// Retained intervals: 0 (both lost), 3 (p1 lost), 5 (p2 lost) = 3.
	if len(r1) != 3 || len(r2) != 3 {
		t.Fatalf("retained %d/%d intervals", len(r1), len(r2))
	}
	if r1[0] != 0.1 || r2[0] != 0.05 {
		t.Errorf("interval 0 rates: %v %v", r1[0], r2[0])
	}
	if r1[1] != 0.2 || r2[1] != 0 {
		t.Errorf("interval 3 rates: %v %v", r1[1], r2[1])
	}
}

func TestFilteredLossRatesMinPackets(t *testing.T) {
	// p2 transmits too little everywhere → all intervals discarded.
	p1 := &Path{RTT: ms(10), Duration: time.Second}
	p2 := &Path{RTT: ms(10), Duration: time.Second}
	for i := 0; i < 100; i++ {
		p1.Tx = append(p1.Tx, time.Duration(i)*ms(10))
	}
	p1.Loss = []time.Duration{ms(500)}
	p2.Tx = []time.Duration{ms(100), ms(600)}
	r1, _ := FilteredLossRates(p1, p2, ms(100), 10)
	if len(r1) != 0 {
		t.Errorf("retained %d intervals, want 0", len(r1))
	}
}

func TestIntervalSweep(t *testing.T) {
	got := IntervalSweep(ms(35), 10, 50, 5)
	if len(got) != 9 {
		t.Fatalf("sweep = %v", got)
	}
	if got[0] != 350*time.Millisecond || got[8] != 1750*time.Millisecond {
		t.Errorf("sweep bounds: %v .. %v", got[0], got[8])
	}
	// Defaults kick in for nonsense arguments.
	if def := IntervalSweep(ms(10), 0, 0, 0); len(def) == 0 {
		t.Error("defaults produced empty sweep")
	}
}

func TestMaxRTT(t *testing.T) {
	a := &Path{RTT: ms(35)}
	b := &Path{RTT: ms(120)}
	if MaxRTT(a, b) != ms(120) || MaxRTT(b, a) != ms(120) {
		t.Error("MaxRTT")
	}
}
