package measure

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Series, Path.Bin and filteredLossRatesRef are the per-σ implementation
// LossSweep replaced — one pass over every timestamp and one division per
// event at each σ — kept verbatim as the oracle LossSweep is held to.

// Series is a pair of per-interval counters for one path.
type Series struct {
	Txed []int // packets transmitted per interval
	Lost []int // loss events registered per interval
}

// Bin divides [0, dur) into intervals of size sigma and counts p's
// transmissions and losses per interval. Events beyond dur fall into the
// last interval.
func (p *Path) Bin(sigma, dur time.Duration) Series {
	n := int(dur / sigma)
	if n < 1 {
		n = 1
	}
	s := Series{Txed: make([]int, n), Lost: make([]int, n)}
	idx := func(t time.Duration) int {
		i := int(t / sigma)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	for _, t := range p.Tx {
		s.Txed[idx(t)]++
	}
	for _, t := range p.Loss {
		s.Lost[idx(t)]++
	}
	return s
}

func filteredLossRatesRef(m1, m2 *Path, sigma time.Duration, minPkts int) (r1, r2 []float64) {
	if minPkts <= 0 {
		minPkts = MinPacketsPerInterval
	}
	dur := m1.Duration
	if m2.Duration > dur {
		dur = m2.Duration
	}
	s1 := m1.Bin(sigma, dur)
	s2 := m2.Bin(sigma, dur)
	n := len(s1.Txed)
	if len(s2.Txed) < n {
		n = len(s2.Txed)
	}
	for t := 0; t < n; t++ {
		if s1.Txed[t] < minPkts || s2.Txed[t] < minPkts {
			continue
		}
		if s1.Lost[t] == 0 && s2.Lost[t] == 0 {
			continue
		}
		r1 = append(r1, lossRate(s1.Lost[t], s1.Txed[t]))
		r2 = append(r2, lossRate(s2.Lost[t], s2.Txed[t]))
	}
	return r1, r2
}

func TestPathBin(t *testing.T) {
	p := &Path{RTT: ms(10), Duration: time.Second,
		Tx:   []time.Duration{ms(50), ms(150), ms(250), ms(950), ms(2000)},
		Loss: []time.Duration{ms(150), ms(999)},
	}
	s := p.Bin(ms(100), time.Second)
	if len(s.Txed) != 10 {
		t.Fatalf("bins = %d", len(s.Txed))
	}
	if s.Txed[0] != 1 || s.Txed[1] != 1 || s.Txed[2] != 1 {
		t.Errorf("Txed head = %v", s.Txed[:3])
	}
	// The 2000 ms event clamps into the last bin alongside 950 ms.
	if s.Txed[9] != 2 {
		t.Errorf("Txed[9] = %d, want 2 (clamped)", s.Txed[9])
	}
	if s.Lost[1] != 1 || s.Lost[9] != 1 {
		t.Errorf("Lost = %v", s.Lost)
	}
}

// series rebuilds path p's per-interval counters at sizes[i] from the
// sweep's cumulative histograms.
func (s *LossSweep) series(p, i int) Series {
	k := int(s.sizes[i] / s.unit)
	n := s.intervals(k)
	out := Series{Txed: make([]int, n), Lost: make([]int, n)}
	for j := 0; j < n; j++ {
		lo, hi := s.span(j, k, n)
		out.Txed[j] = s.tx[p][hi] - s.tx[p][lo]
		out.Lost[j] = s.lost[p][hi] - s.lost[p][lo]
	}
	return out
}

func equalBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkSweepMatchesBin holds a LossSweep over sizes, and the single-size
// FilteredLossRates, to the per-σ oracle.
func checkSweepMatchesBin(t *testing.T, m1, m2 *Path, sizes []time.Duration, minPkts int) {
	t.Helper()
	dur := max(m1.Duration, m2.Duration)
	sweep := NewLossSweep(m1, m2, sizes, minPkts)
	for i, sigma := range sizes {
		for p, m := range [2]*Path{m1, m2} {
			want, got := m.Bin(sigma, dur), sweep.series(p, i)
			if !slices.Equal(got.Txed, want.Txed) || !slices.Equal(got.Lost, want.Lost) {
				t.Fatalf("σ=%v (unit %v, dur %v) path %d:\n got %v\nwant %v", sigma, sweep.unit, dur, p+1, got, want)
			}
		}
		want1, want2 := filteredLossRatesRef(m1, m2, sigma, minPkts)
		if r1, r2 := sweep.Rates(i); !equalBits(r1, want1) || !equalBits(r2, want2) {
			t.Fatalf("σ=%v (unit %v): sweep rates differ from the oracle's (%d vs %d retained)", sigma, sweep.unit, len(r1), len(want1))
		}
		if r1, r2 := FilteredLossRates(m1, m2, sigma, minPkts); !equalBits(r1, want1) || !equalBits(r2, want2) {
			t.Fatalf("σ=%v: FilteredLossRates differs from the oracle's (%d vs %d retained)", sigma, len(r1), len(want1))
		}
	}
}

// sweepCase turns fuzz input into two paths and a sweep. Every two bytes of
// raw are one event: a signed 16-bit step in sixteenths of an RTT, taken as
// a delta from the previous event (order 0: out of order whenever the step
// is negative), as a non-negative delta (order 1: ascending, with
// duplicates) or as an absolute position (order 2: shuffled, negative and
// beyond dur); the low bits of the step pick the path and Tx or Loss.
func sweepCase(raw []byte, rttNs uint16, durSixteenths uint16, lo, step, order uint8) (m1, m2 *Path, sizes []time.Duration) {
	rtt := time.Duration(rttNs%5000+16) * time.Microsecond
	dur := time.Duration(durSixteenths) * rtt / 16 // up to 4096 RTTs, rarely a multiple of σ
	m1 = &Path{RTT: rtt, Duration: dur}
	m2 = &Path{RTT: rtt, Duration: dur * 3 / 4}
	var at time.Duration
	for i := 0; i+1 < len(raw); i += 2 {
		v := int16(uint16(raw[i])<<8 | uint16(raw[i+1]))
		d := time.Duration(v) * rtt / 16
		switch order % 3 {
		case 0:
			at += d
		case 1:
			at += max(d, -d)
		default:
			at = d * 64
		}
		m := m1
		if v&1 != 0 {
			m = m2
		}
		m.Tx = append(m.Tx, at)
		if v&6 == 0 {
			m.Loss = append(m.Loss, at)
		}
	}
	loRTTs, stepRTTs := int(lo%10)+1, int(step%5)+1
	return m1, m2, IntervalSweep(rtt, loRTTs, loRTTs+9*stepRTTs, stepRTTs)
}

func FuzzLossSweepMatchesBin(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for order := uint8(0); order < 3; order++ {
		raw := make([]byte, 4000)
		for i := range raw {
			raw[i] = byte(rng.Intn(256))
		}
		for i := 0; i < len(raw); i += 2 {
			raw[i] = 0 // steps below an RTT, so intervals hold many events …
			if rng.Intn(4) == 0 {
				raw[i] = 0xff // … a quarter of them backwards
			}
		}
		f.Add(raw, uint16(35000), uint16(20000), uint8(9), uint8(4), order) // the paper's 10,15,…,50 RTT
		f.Add(raw, uint16(100), uint16(37), uint8(2), uint8(2), order)      // dur < σ: the n = 1 clamp
		f.Add(raw[:64], uint16(7), uint16(1000), uint8(0), uint8(0), order) // k = 1…10
	}
	f.Add([]byte{}, uint16(1), uint16(0), uint8(0), uint8(0), uint8(0)) // no events, zero duration
	f.Fuzz(func(t *testing.T, raw []byte, rttNs, durSixteenths uint16, lo, step, order uint8) {
		m1, m2, sizes := sweepCase(raw, rttNs, durSixteenths, lo, step, order)
		checkSweepMatchesBin(t, m1, m2, sizes, 1+len(raw)%12)
		m2.Loss = nil
		checkSweepMatchesBin(t, m1, m2, sizes, 0)
	})
}

// TestLossSweepMatchesBin runs the differential check on inputs large enough
// to retain intervals at every size, which the fuzz seeds alone are not.
func TestLossSweepMatchesBin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		rtt := time.Duration(1+rng.Intn(80)) * time.Millisecond
		dur := time.Duration(rng.Int63n(int64(400 * rtt)))
		mk := func() *Path {
			p := &Path{RTT: rtt, Duration: dur - time.Duration(rng.Int63n(int64(rtt)))}
			for i, n := 0, rng.Intn(6000); i < n; i++ {
				// A few events before 0 and beyond dur.
				at := time.Duration(rng.Int63n(int64(dur+4*rtt))) - rtt
				p.Tx = append(p.Tx, at)
				if rng.Intn(20) == 0 {
					p.Loss = append(p.Loss, at+time.Duration(rng.Int63n(int64(rtt))))
				}
			}
			return p
		}
		m1, m2 := mk(), mk()
		if trial%2 == 0 { // the simulator's case: ascending timestamps
			for _, ts := range [][]time.Duration{m1.Tx, m1.Loss, m2.Tx, m2.Loss} {
				slices.Sort(ts)
			}
		}
		lo, step := 1+rng.Intn(12), 1+rng.Intn(6)
		checkSweepMatchesBin(t, m1, m2, IntervalSweep(rtt, lo, lo+8*step, step), rng.Intn(12))
	}
}

func TestLossSweepNonPositiveSizes(t *testing.T) {
	p := &Path{RTT: ms(10), Duration: time.Second}
	for i := 0; i < 200; i++ {
		p.Tx = append(p.Tx, time.Duration(i)*ms(5))
		p.Loss = append(p.Loss, time.Duration(i)*ms(5))
	}
	for _, tc := range []struct {
		name     string
		sizes    []time.Duration
		retained []int // per size
	}{
		{"zero", []time.Duration{0}, []int{0}},
		{"negative", []time.Duration{-ms(100)}, []int{0}},
		{"all non-positive", []time.Duration{0, -ms(100), 0}, []int{0, 0, 0}},
		{"mixed", []time.Duration{0, ms(100), -ms(50), ms(250)}, []int{0, 10, 0, 4}},
		{"none", nil, nil},
	} {
		sweep := NewLossSweep(p, p, tc.sizes, 0)
		for i, want := range tc.retained {
			r1, r2 := sweep.Rates(i)
			if len(r1) != want || len(r2) != want {
				t.Errorf("%s: size %v retained %d/%d intervals, want %d", tc.name, tc.sizes[i], len(r1), len(r2), want)
			}
		}
	}
	if r1, r2 := FilteredLossRates(p, p, 0, 0); len(r1) != 0 || len(r2) != 0 {
		t.Errorf("FilteredLossRates at σ = 0 retained %d/%d intervals", len(r1), len(r2))
	}
	// A record with no duration still bins: one interval holding everything.
	q := &Path{Tx: p.Tx, Loss: p.Loss, Duration: -time.Second}
	if r1, _ := FilteredLossRates(q, q, ms(100), 0); len(r1) != 1 || r1[0] != 1 {
		t.Errorf("negative duration: rates %v, want [1]", r1)
	}
}
