package tomo

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/measure"
)

func TestBinLossTomoSystemSolution(t *testing.T) {
	// Hand-crafted rate series with known lossy patterns at tau = 0.05:
	// intervals:        0     1     2     3     4     5     6     7
	r1 := []float64{0.10, 0.00, 0.10, 0.00, 0.10, 0.00, 0.00, 0.00}
	r2 := []float64{0.10, 0.00, 0.00, 0.10, 0.10, 0.00, 0.00, 0.00}
	// lossy1 = {0,2,4}, lossy2 = {0,3,4} → good1 = 5/8, good2 = 5/8,
	// good12 = |{1,5,6,7}| = 4/8.
	perf, ok := binLossTomoRates(r1, r2, 0.05)
	if !ok {
		t.Fatal("inference failed")
	}
	y1, y2, y12 := 5.0/8, 5.0/8, 4.0/8
	if got, want := perf.Xc, y1*y2/y12; math.Abs(got-want) > 1e-12 {
		t.Errorf("Xc = %v, want %v", got, want)
	}
	if got, want := perf.X1, y12/y2; math.Abs(got-want) > 1e-12 {
		t.Errorf("X1 = %v, want %v", got, want)
	}
	if got, want := perf.X2, y12/y1; math.Abs(got-want) > 1e-12 {
		t.Errorf("X2 = %v, want %v", got, want)
	}
}

func TestBinLossTomoDegenerateCases(t *testing.T) {
	if _, ok := binLossTomoRates(nil, nil, 0.1); ok {
		t.Error("empty series inferred")
	}
	// Always-lossy path: y = 0 → degenerate.
	r := []float64{0.5, 0.5, 0.5, 0.5}
	if _, ok := binLossTomoRates(r, r, 0.1); ok {
		t.Error("always-lossy series inferred")
	}
}

func TestBinLossTomoIdentifiesCommonBottleneckWithGoodTau(t *testing.T) {
	// Pure common bottleneck, bimodal-ish rates: a threshold well below the
	// base loss rate separates quiet from busy intervals, and the common
	// link should be inferred as the worse performer.
	rng := rand.New(rand.NewSource(1))
	m1, m2 := measure.SynthPair(rng, measure.SynthSpec{CommonWeight: 1})
	sigma := 10 * measure.MaxRTT(m1, m2)
	if !BinLossTomoPlus(m1, m2, sigma, 0.02) {
		t.Error("BinLossTomo++ missed a pure common bottleneck at a good threshold")
	}
}

func TestBinLossTomoParameterSensitivity(t *testing.T) {
	// The Figure 3 pathology: as tau approaches the true average loss rate,
	// the inferred gap x1 − xc shrinks (the two curves approach/cross)
	// because the paths' rates oscillate around tau and land on opposite
	// sides. We check the gap at a good threshold exceeds the gap near the
	// mean loss rate.
	rng := rand.New(rand.NewSource(2))
	m1, m2 := measure.SynthPair(rng, measure.SynthSpec{CommonWeight: 1, BaseLoss: 0.04})
	sigma := 10 * measure.MaxRTT(m1, m2)
	good, ok1 := BinLossTomo(m1, m2, sigma, 0.015)
	bad, ok2 := BinLossTomo(m1, m2, sigma, 0.04)
	if !ok1 || !ok2 {
		t.Fatal("inference failed")
	}
	gapGood := good.X1 - good.Xc
	gapBad := bad.X1 - bad.Xc
	if gapGood <= gapBad {
		t.Errorf("expected sensitivity: gap(τ=0.015)=%v should exceed gap(τ=0.04)=%v",
			gapGood, gapBad)
	}
}

func TestBinLossTomoNoParamsOnCommonBottleneck(t *testing.T) {
	detected := 0
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m1, m2 := measure.SynthPair(rng, measure.SynthSpec{CommonWeight: 1})
		res := BinLossTomoNoParams(m1, m2, NoParamsConfig{})
		if res.Combos == 0 {
			t.Fatalf("seed %d: no admissible parameter combinations", seed)
		}
		if res.CommonBottleneck {
			detected++
		}
	}
	// Classic tomography is *worse* than loss-trend correlation (Fig. 6)
	// but should still catch a decent share of clean pure-common cases.
	if detected < trials/3 {
		t.Errorf("detected %d/%d pure-common cases; suspiciously low", detected, trials)
	}
}

func TestBinLossTomoNoParamsOnIndependentBottlenecks(t *testing.T) {
	positives := 0
	const trials = 20
	for seed := int64(50); seed < 50+trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m1, m2 := measure.SynthPair(rng, measure.SynthSpec{CommonWeight: 0})
		res := BinLossTomoNoParams(m1, m2, NoParamsConfig{})
		if res.CommonBottleneck {
			positives++
		}
	}
	if positives > trials/4 {
		t.Errorf("independent bottlenecks: %d/%d positives", positives, trials)
	}
}

func TestTrendTomoBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mc1, mc2 := measure.SynthPair(rng, measure.SynthSpec{CommonWeight: 1})
	res := TrendTomo(mc1, mc2, NoParamsConfig{})
	if res.Combos == 0 {
		t.Fatal("no combinations")
	}
	if !res.CommonBottleneck {
		t.Error("TrendTomo missed a pure common bottleneck")
	}

	positives := 0
	const trials = 15
	for seed := int64(200); seed < 200+trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mi1, mi2 := measure.SynthPair(rng, measure.SynthSpec{CommonWeight: 0})
		if TrendTomo(mi1, mi2, NoParamsConfig{}).CommonBottleneck {
			positives++
		}
	}
	if positives > trials/3 {
		t.Errorf("TrendTomo FP: %d/%d", positives, trials)
	}
}

func TestTrendLabels(t *testing.T) {
	got := trendLabels([]float64{0.1, 0.2, 0.2, 0.1, 0.3})
	want := []bool{true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trendLabels = %v, want %v", got, want)
		}
	}
}

func TestThresholdAdmissible(t *testing.T) {
	rates := []float64{0, 0, 0, 0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}
	if !thresholdAdmissible(rates, 0.05) { // 60% lossy
		t.Error("60% lossy should be admissible")
	}
	if thresholdAdmissible(rates, 0.2) { // 0% lossy
		t.Error("0% lossy should not be admissible")
	}
	if thresholdAdmissible([]float64{1, 1, 1}, 0.5) { // 100% lossy
		t.Error("100% lossy should not be admissible")
	}
}

func TestQuantileSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := quantileSorted(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantileSorted(xs, 1); got != 4 {
		t.Errorf("q1.0 = %v", got)
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Error("empty quantile")
	}
}

func TestBinLossTomoRespectsIntervalSize(t *testing.T) {
	// Wiring check: public BinLossTomo bins with the given sigma.
	m := &measure.Path{RTT: 10 * time.Millisecond, Duration: time.Second}
	for ts := time.Duration(0); ts < time.Second; ts += time.Millisecond {
		m.Tx = append(m.Tx, ts)
	}
	m.Loss = []time.Duration{500 * time.Millisecond}
	if _, ok := BinLossTomo(m, m, 100*time.Millisecond, 0.5); !ok {
		t.Error("valid measurements failed to infer")
	}
}

// A record with no usable RTT, or a non-positive σ, yields no interval size
// to bin at: every baseline must answer "no inference", not divide by zero.
func TestNoInferenceWithoutIntervalSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	good1, good2 := measure.SynthPair(rng, measure.SynthSpec{CommonWeight: 1})
	if res := BinLossTomoNoParams(good1, good2, NoParamsConfig{}); res.Combos == 0 {
		t.Fatal("control: the synthetic pair supports no inference at its own RTT")
	}
	for _, rtt := range []time.Duration{0, -35 * time.Millisecond} {
		m1, m2 := *good1, *good2
		m1.RTT, m2.RTT = rtt, rtt
		if res := BinLossTomoNoParams(&m1, &m2, NoParamsConfig{}); res.Combos != 0 || res.CommonBottleneck {
			t.Errorf("RTT %v: BinLossTomoNoParams = %+v, want no inference", rtt, res)
		}
		if res := TrendTomo(&m1, &m2, NoParamsConfig{}); res.Combos != 0 || res.CommonBottleneck {
			t.Errorf("RTT %v: TrendTomo = %+v, want no inference", rtt, res)
		}
		// σ = 10·RTT, as the callers size it.
		if perf, ok := BinLossTomo(&m1, &m2, 10*rtt, 0.02); ok {
			t.Errorf("σ %v: BinLossTomo inferred %+v", 10*rtt, perf)
		}
		if BinLossTomoPlus(&m1, &m2, 10*rtt, 0.02) {
			t.Errorf("σ %v: BinLossTomo++ declared a common bottleneck", 10*rtt)
		}
	}
	// A bare record: only a duration and a log.
	bare := &measure.Path{Duration: time.Second, Tx: []time.Duration{0, time.Millisecond}}
	if res := BinLossTomoNoParams(bare, bare, NoParamsConfig{}); res.Combos != 0 {
		t.Errorf("bare record: %+v, want no inference", res)
	}
}
