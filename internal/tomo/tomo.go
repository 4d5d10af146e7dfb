// Package tomo implements the classic binary-loss network-tomography
// algorithms that WeHeY evolved away from (§4.3 and Appendix B of the
// paper): BinLossTomo (Alg. 2), BinLossTomo++ (Alg. 3),
// BinLossTomoNoParams (Alg. 4), and the intermediate "V2" trend-labelled
// tomography. They serve as the baselines in Figure 6 and as the
// demonstration of the parameter-sensitivity pathology in Figure 3.
//
// All algorithms operate on the topology of the paper's Figure 1: two
// paths p1, p2 that intersect exactly at a common link sequence l_c, with
// non-common sequences l_1 and l_2. The tomographic system of equations
// (System 1, assuming independent link sequences) is
//
//	y1  = xc·x1,   y2 = xc·x2,   y12 = xc·x1·x2,
//
// where y are observed path non-lossy probabilities and x the inferred
// link-sequence non-lossy probabilities, giving the closed-form solution
//
//	xc = y1·y2/y12,   x1 = y12/y2,   x2 = y12/y1.
package tomo

import (
	"math"
	"sort"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
)

// LinkPerf is the output of BinLossTomo: each link sequence's inferred
// probability of being non-lossy.
type LinkPerf struct {
	Xc, X1, X2 float64
}

// BinLossTomo (Alg. 2) runs binary loss tomography at one interval size and
// loss threshold. For each retained interval it labels each path lossy when
// its loss rate exceeds tau, estimates the path and joint non-lossy
// probabilities, and solves System 1.
//
// ok is false when the measurements cannot support an inference (no
// retained intervals, or a path that is lossy in every interval, which
// makes System 1 degenerate).
func BinLossTomo(m1, m2 *measure.Path, sigma time.Duration, tau float64) (perf LinkPerf, ok bool) {
	r1, r2 := measure.FilteredLossRates(m1, m2, sigma, measure.MinPacketsPerInterval)
	return binLossTomoRates(r1, r2, tau)
}

func binLossTomoRates(r1, r2 []float64, tau float64) (LinkPerf, bool) {
	n := len(r1)
	if n == 0 {
		return LinkPerf{}, false
	}
	var good1, good2, good12 int
	for t := 0; t < n; t++ {
		ok1 := r1[t] <= tau
		ok2 := r2[t] <= tau
		if ok1 {
			good1++
		}
		if ok2 {
			good2++
		}
		if ok1 && ok2 {
			good12++
		}
	}
	y1 := float64(good1) / float64(n)
	y2 := float64(good2) / float64(n)
	y12 := float64(good12) / float64(n)
	// Integer count checks: the yields are exact ratios, zero iff the
	// underlying count is zero.
	if good12 == 0 || good1 == 0 || good2 == 0 {
		return LinkPerf{}, false
	}
	perf := LinkPerf{
		Xc: clamp01(y1 * y2 / y12),
		X1: clamp01(y12 / y2),
		X2: clamp01(y12 / y1),
	}
	return perf, true
}

func clamp01(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// BinLossTomoPlus (Alg. 3) declares a common bottleneck when the common
// link sequence's inferred performance is worse than both non-common ones.
func BinLossTomoPlus(m1, m2 *measure.Path, sigma time.Duration, tau float64) bool {
	perf, ok := BinLossTomo(m1, m2, sigma, tau)
	if !ok {
		return false
	}
	return perf.X1 > perf.Xc && perf.X2 > perf.Xc
}

// NoParamsConfig tunes BinLossTomoNoParams. Zero values give the paper's
// settings.
type NoParamsConfig struct {
	// LoRTTs, HiRTTs, StepRTTs bound the interval-size sweep in units of
	// the larger path RTT (defaults 10, 50, 5).
	LoRTTs, HiRTTs, StepRTTs int
	// ThresholdQuantiles are the quantiles of the pooled per-interval loss
	// rates tried as loss thresholds (defaults 0.1..0.9 step 0.1). Each
	// candidate is kept only if it leaves both paths lossy in 10–90% of
	// intervals (the Alg. 4 constraint 0.1 ≤ y_i ≤ 0.9).
	ThresholdQuantiles []float64
}

func (c *NoParamsConfig) fill() {
	if c.LoRTTs == 0 {
		c.LoRTTs = 10
	}
	if c.HiRTTs == 0 {
		c.HiRTTs = 50
	}
	if c.StepRTTs == 0 {
		c.StepRTTs = 5
	}
	if len(c.ThresholdQuantiles) == 0 {
		for q := 0.1; q < 0.95; q += 0.1 {
			c.ThresholdQuantiles = append(c.ThresholdQuantiles, q)
		}
	}
}

// NoParamsResult reports BinLossTomoNoParams' decision and the averaged
// performance gaps behind it.
type NoParamsResult struct {
	CommonBottleneck bool
	AvgGap1, AvgGap2 float64 // mean (x1−xc), (x2−xc) over all combinations
	Combos           int     // parameter combinations that yielded an inference
}

// BinLossTomoNoParams (Alg. 4) sweeps interval sizes (10–50 RTT) and loss
// thresholds (constrained so neither path is lossy too often or too
// rarely), averages the performance gap between the non-common and common
// link sequences across all combinations, and declares a common bottleneck
// when both average gaps are positive.
func BinLossTomoNoParams(m1, m2 *measure.Path, cfg NoParamsConfig) NoParamsResult {
	cfg.fill()
	rtt := measure.MaxRTT(m1, m2)
	var sum1, sum2 float64
	combos := 0
	sweep := measure.IntervalSweep(rtt, cfg.LoRTTs, cfg.HiRTTs, cfg.StepRTTs)
	series := measure.NewLossSweep(m1, m2, sweep, measure.MinPacketsPerInterval)
	var pooled []float64
	for i := range sweep {
		r1, r2 := series.Rates(i)
		if len(r1) == 0 {
			continue
		}
		pooled = append(append(pooled[:0], r1...), r2...)
		sort.Float64s(pooled)
		for _, q := range cfg.ThresholdQuantiles {
			tau := quantileSorted(pooled, q)
			if !thresholdAdmissible(r1, tau) || !thresholdAdmissible(r2, tau) {
				continue
			}
			perf, ok := binLossTomoRates(r1, r2, tau)
			if !ok {
				continue
			}
			sum1 += perf.X1 - perf.Xc
			sum2 += perf.X2 - perf.Xc
			combos++
		}
	}
	res := NoParamsResult{Combos: combos}
	if combos == 0 {
		return res
	}
	res.AvgGap1 = sum1 / float64(combos)
	res.AvgGap2 = sum2 / float64(combos)
	res.CommonBottleneck = res.AvgGap1 > 0 && res.AvgGap2 > 0
	return res
}

// thresholdAdmissible enforces Alg. 4's constraint 0.1 ≤ y ≤ 0.9: the path
// must be lossy in between 10% and 90% of the intervals at threshold tau.
func thresholdAdmissible(rates []float64, tau float64) bool {
	lossy := 0
	for _, r := range rates {
		if r > tau {
			lossy++
		}
	}
	frac := float64(lossy) / float64(len(rates))
	return frac >= 0.1 && frac <= 0.9
}

// TrendResult reports TrendTomo's decision.
type TrendResult struct {
	CommonBottleneck bool
	AvgGap1, AvgGap2 float64
	Combos           int
}

// TrendTomo is the paper's intermediate "V2": binary tomography where a
// path is labelled lossy in an interval when its loss rate *increased*
// relative to the previous interval — eliminating the loss threshold and
// reducing interval-size sensitivity. Gaps are averaged over the interval
// sweep as in Alg. 4.
func TrendTomo(m1, m2 *measure.Path, cfg NoParamsConfig) TrendResult {
	cfg.fill()
	rtt := measure.MaxRTT(m1, m2)
	var sum1, sum2 float64
	combos := 0
	sweep := measure.IntervalSweep(rtt, cfg.LoRTTs, cfg.HiRTTs, cfg.StepRTTs)
	series := measure.NewLossSweep(m1, m2, sweep, measure.MinPacketsPerInterval)
	for i := range sweep {
		r1, r2 := series.Rates(i)
		if len(r1) < 2 {
			continue
		}
		inc1 := trendLabels(r1)
		inc2 := trendLabels(r2)
		perf, ok := trendSystem(inc1, inc2)
		if !ok {
			continue
		}
		sum1 += perf.X1 - perf.Xc
		sum2 += perf.X2 - perf.Xc
		combos++
	}
	res := TrendResult{Combos: combos}
	if combos == 0 {
		return res
	}
	res.AvgGap1 = sum1 / float64(combos)
	res.AvgGap2 = sum2 / float64(combos)
	res.CommonBottleneck = res.AvgGap1 > 0 && res.AvgGap2 > 0
	return res
}

// trendLabels marks intervals whose loss rate increased vs the previous one.
func trendLabels(rates []float64) []bool {
	out := make([]bool, 0, len(rates)-1)
	for i := 1; i < len(rates); i++ {
		out = append(out, rates[i] > rates[i-1])
	}
	return out
}

// trendSystem solves System 1 with "lossy" = "loss rate increased".
func trendSystem(l1, l2 []bool) (LinkPerf, bool) {
	n := len(l1)
	if n == 0 || len(l2) != n {
		return LinkPerf{}, false
	}
	var good1, good2, good12 int
	for t := 0; t < n; t++ {
		if !l1[t] {
			good1++
		}
		if !l2[t] {
			good2++
		}
		if !l1[t] && !l2[t] {
			good12++
		}
	}
	y1 := float64(good1) / float64(n)
	y2 := float64(good2) / float64(n)
	y12 := float64(good12) / float64(n)
	// Integer count checks: the yields are exact ratios, zero iff the
	// underlying count is zero.
	if good12 == 0 || good1 == 0 || good2 == 0 {
		return LinkPerf{}, false
	}
	return LinkPerf{
		Xc: clamp01(y1 * y2 / y12),
		X1: clamp01(y12 / y2),
		X2: clamp01(y12 / y1),
	}, true
}

// quantileSorted is a type-7 quantile over an already-sorted sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
