package measure

import "time"

// MinPacketsPerInterval is the default minimum number of transmitted
// packets a path needs in an interval for the interval's loss rate to be
// meaningful (Alg. 1 line 4 uses 10).
const MinPacketsPerInterval = 10

// FilteredLossRates implements the CreateTimeSeries step shared by Alg. 1
// and the tomography baselines (Algs. 2–4): it divides time into intervals
// of size sigma, computes each path's per-interval loss rate, and discards
// intervals where one or both paths transmitted fewer than minPkts packets
// or where neither path lost anything. A non-positive sigma yields empty
// series.
//
// The two returned series are aligned: element i of both corresponds to the
// same retained interval.
func FilteredLossRates(m1, m2 *Path, sigma time.Duration, minPkts int) (r1, r2 []float64) {
	return NewLossSweep(m1, m2, []time.Duration{sigma}, minPkts).Rates(0)
}

// LossSweep is CreateTimeSeries at every size of an interval sweep. Each
// path's timestamps are binned once, at the greatest common divisor u of
// the sizes; the series at σ = k·u is read off that histogram k bins at a
// time. The counts equal those of binning the events at σ directly, since
// ⌊t/(k·u)⌋ = ⌊⌊t/u⌋/k⌋ for t ≥ 0 (DESIGN.md §17). The sizes are expected
// to share a large divisor, as those of an IntervalSweep do: the histogram
// has duration/u bins.
type LossSweep struct {
	sizes   []time.Duration
	unit    time.Duration // u; 0 when no size is positive
	bins    int           // ⌊duration/u⌋ + 1
	minPkts int
	// Cumulative counts per path: entry b counts the events whose bin
	// ⌊t/u⌋, clamped into [0, bins), is below b.
	tx, lost [2][]int
	r1, r2   []float64
}

// NewLossSweep bins both paths for the given interval sizes over the longer
// of the two paths' durations. Events beyond the duration fall into the
// last interval of every size, negative timestamps into the first.
func NewLossSweep(m1, m2 *Path, sizes []time.Duration, minPkts int) *LossSweep {
	if minPkts <= 0 {
		minPkts = MinPacketsPerInterval
	}
	s := &LossSweep{sizes: sizes, minPkts: minPkts}
	for _, sigma := range sizes {
		if sigma > 0 {
			s.unit = gcd(s.unit, sigma)
		}
	}
	if s.unit == 0 {
		return s
	}
	dur := max(m1.Duration, m2.Duration, 0)
	s.bins = int(dur/s.unit) + 1
	counts := make([]int, 4*(s.bins+1))
	for i, m := range [2]*Path{m1, m2} {
		s.tx[i], counts = counts[:s.bins+1], counts[s.bins+1:]
		s.lost[i], counts = counts[:s.bins+1], counts[s.bins+1:]
		cumulate(s.tx[i], m.Tx, s.unit)
		cumulate(s.lost[i], m.Loss, s.unit)
	}
	rates := make([]float64, 2*s.bins)
	s.r1, s.r2 = rates[:0:s.bins], rates[s.bins:s.bins]
	return s
}

func gcd(a, b time.Duration) time.Duration {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// cumulate fills cum (one entry more than there are bins) with the
// cumulative histogram of ts over bins of size unit. Timestamps in
// ascending order, as the simulator produces them, are placed by walking
// the bin boundaries; one that lies before the walk's current bin (out of
// order, or negative) is placed by division instead.
func cumulate(cum []int, ts []time.Duration, unit time.Duration) {
	counts := cum[1:]
	last := len(counts) - 1
	b, lo, hi := 0, time.Duration(0), unit // the current bin is [lo, hi)
	run := 0                               // events of bin b not yet added to counts[b]
	for _, t := range ts {
		for t >= hi && b < last {
			counts[b], run = counts[b]+run, 0
			b, lo, hi = b+1, hi, hi+unit
		}
		if t >= lo {
			run++ // includes t ≥ hi in the last bin: the overflow clamp
			continue
		}
		counts[max(int(t/unit), 0)]++
	}
	counts[b] += run
	for i := range counts {
		cum[i+1] += cum[i]
	}
}

// intervals returns the number of intervals of k unit bins each: ⌊dur/σ⌋,
// and at least one.
func (s *LossSweep) intervals(k int) int { return max((s.bins-1)/k, 1) }

// span returns the unit bins [lo, hi) that make up interval j of n: k bins,
// except that the last interval takes every remaining bin.
func (s *LossSweep) span(j, k, n int) (lo, hi int) {
	if j == n-1 {
		return j * k, s.bins
	}
	return j * k, (j + 1) * k
}

// Rates returns the filtered, aligned loss-rate series at sizes[i]. The
// slices are overwritten by the next call.
func (s *LossSweep) Rates(i int) (r1, r2 []float64) {
	sigma := s.sizes[i]
	if sigma <= 0 {
		return nil, nil
	}
	k := int(sigma / s.unit)
	n := s.intervals(k)
	r1, r2 = s.r1[:0], s.r2[:0]
	for j := 0; j < n; j++ {
		lo, hi := s.span(j, k, n)
		tx1, tx2 := s.tx[0][hi]-s.tx[0][lo], s.tx[1][hi]-s.tx[1][lo]
		if tx1 < s.minPkts || tx2 < s.minPkts {
			continue
		}
		lost1, lost2 := s.lost[0][hi]-s.lost[0][lo], s.lost[1][hi]-s.lost[1][lo]
		if lost1 == 0 && lost2 == 0 {
			continue
		}
		r1 = append(r1, lossRate(lost1, tx1))
		r2 = append(r2, lossRate(lost2, tx2))
	}
	return r1, r2
}

func lossRate(lost, txed int) float64 {
	if txed == 0 {
		return 0
	}
	r := float64(lost) / float64(txed)
	if r > 1 {
		// Registered losses can exceed transmissions within one interval
		// (registration lags transmission); clamp for sanity.
		r = 1
	}
	return r
}

// IntervalSweep returns the interval sizes Alg. 1 and Alg. 4 iterate over:
// multiples of the larger of the two paths' RTTs, from loRTTs to hiRTTs in
// steps of stepRTTs (the paper uses 10–50 RTTs).
func IntervalSweep(rtt time.Duration, loRTTs, hiRTTs, stepRTTs int) []time.Duration {
	if loRTTs <= 0 {
		loRTTs = 10
	}
	if hiRTTs < loRTTs {
		hiRTTs = loRTTs
	}
	if stepRTTs <= 0 {
		stepRTTs = 5
	}
	out := make([]time.Duration, 0, (hiRTTs-loRTTs)/stepRTTs+1)
	for k := loRTTs; k <= hiRTTs; k += stepRTTs {
		out = append(out, time.Duration(k)*rtt)
	}
	return out
}

// MaxRTT returns the larger of the two paths' RTTs.
func MaxRTT(m1, m2 *Path) time.Duration {
	if m1.RTT > m2.RTT {
		return m1.RTT
	}
	return m2.RTT
}
