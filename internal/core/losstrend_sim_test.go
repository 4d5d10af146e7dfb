package core_test

import (
	"math"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/experiments"
)

// sizeBits is one IntervalVerdict with its floats as IEEE-754 bit patterns.
type sizeBits struct {
	sigma     time.Duration
	intervals int
	rho, p    uint64
}

// TestLossTrendPerSizeUnchanged pins Alg. 1's complete per-size output on
// three simulated trials (a TCP pair, a UDP application, and a non-common
// placement with unequal RTTs) to values recorded with every σ binned
// directly, one division per event — the oracle internal/measure's tests
// keep — so a change to how the loss time series are built cannot shift a ρ
// or a p by one ulp unnoticed.
func TestLossTrendPerSizeUnchanged(t *testing.T) {
	for _, tc := range []struct {
		spec   experiments.SimSpec
		common bool
		want   []sizeBits
	}{
		{experiments.SimSpec{App: experiments.TCPBulkApp, Seed: 1}, true, []sizeBits{
			{350 * time.Millisecond, 95, 0x3fe5127e1475e6a4, 0x3d4cc00000000000},
			{525 * time.Millisecond, 75, 0x3fe7a2a05800da55, 0x3d16200000000000},
			{700 * time.Millisecond, 59, 0x3fea29c4ae41d6d6, 0x3cd8000000000000},
			{875 * time.Millisecond, 48, 0x3fe6f799acf36521, 0x3e34342a58000000},
			{1050 * time.Millisecond, 40, 0x3fe9136ac3fa6a1c, 0x3e1355d2a0000000},
			{1225 * time.Millisecond, 34, 0x3febb78faa433293, 0x3db42fd800000000},
			{1400 * time.Millisecond, 31, 0x3fea3827a3827a38, 0x3e42a56414000000},
			{1575 * time.Millisecond, 27, 0x3fe8e38e38e38e39, 0x3eae41def2000000},
			{1750 * time.Millisecond, 24, 0x3fe740f5d976742f, 0x3efe527ad28d0000},
		}},
		{experiments.SimSpec{App: "zoom", Seed: 2}, true, []sizeBits{
			{350 * time.Millisecond, 116, 0x3fe9fbdf4402c6ea, 0x0},
			{525 * time.Millisecond, 79, 0x3fecaf707cd3398b, 0x0},
			{700 * time.Millisecond, 63, 0x3fecf58ab013a2ce, 0x0},
			{875 * time.Millisecond, 51, 0x3fed6a4efb3738d8, 0x0},
			{1050 * time.Millisecond, 42, 0x3fee1bbc551830e7, 0x0},
			{1225 * time.Millisecond, 36, 0x3fee560ee463e561, 0x0},
			{1400 * time.Millisecond, 32, 0x3fede6799e6799e6, 0x3ce9000000000000},
			{1575 * time.Millisecond, 28, 0x3fee00d73996e8e1, 0x3d3b500000000000},
			{1750 * time.Millisecond, 25, 0x3fee276276276276, 0x3d71e60000000000},
		}},
		{experiments.SimSpec{App: "skype", Placement: experiments.LimiterNonCommon, RTT2: 50 * time.Millisecond, Seed: 3}, false, []sizeBits{
			{500 * time.Millisecond, 80, 0xbfb8108f316bc3d4, 0x3fe97d685992693f},
			{750 * time.Millisecond, 56, 0xbfadab8506ee37bf, 0x3fe541f2c504c468},
			{1000 * time.Millisecond, 43, 0x3f8a7c16febe65f3, 0x3fdde6a3193baba6},
			{1250 * time.Millisecond, 34, 0x3fb874f816b084af, 0x3fd2e917ebb1080a},
			{1500 * time.Millisecond, 29, 0xbf71c9ea1af4a6ed, 0x3fe04910c4f20de6},
			{1750 * time.Millisecond, 24, 0x3fb0dddfa6cef73c, 0x3fd84f7863087994},
			{2000 * time.Millisecond, 22, 0x3fa979692781e9ca, 0x3fda6e4979a8e328},
			{2250 * time.Millisecond, 20, 0xbf9474098f7736f0, 0x3fe110d71915bcf6},
			{2500 * time.Millisecond, 18, 0x3fc8a1ab7f407205, 0x3fcc6edea0f7d918},
		}},
	} {
		res := experiments.RunSim(tc.spec)
		got, err := core.LossTrendCorrelation(&res.M1, &res.M2, core.LossTrendConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got.CommonBottleneck != tc.common || len(got.PerSize) != len(tc.want) {
			t.Fatalf("%s: common bottleneck %v over %d sizes, want %v over %d",
				tc.spec.App, got.CommonBottleneck, len(got.PerSize), tc.common, len(tc.want))
		}
		for i, v := range got.PerSize {
			if g := (sizeBits{v.Sigma, v.Intervals, math.Float64bits(v.Rho), math.Float64bits(v.P)}); g != tc.want[i] {
				t.Errorf("%s σ=%v: {intervals ρ p} = {%d %#x %#x}, want {%d %#x %#x}",
					tc.spec.App, v.Sigma, g.intervals, g.rho, g.p, tc.want[i].intervals, tc.want[i].rho, tc.want[i].p)
			}
		}
	}
}

// BenchmarkLossTrendCorrelation is one Alg. 1 verdict — binning, nine
// filtered series, nine Spearman tests — on the measurements of a simulated
// 45 s trial: what a warm paper_rerun trial spends outside the cache read.
func BenchmarkLossTrendCorrelation(b *testing.B) {
	for _, app := range []string{experiments.TCPBulkApp, "zoom"} {
		res := experiments.RunSim(experiments.SimSpec{App: app, Seed: 1})
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.LossTrendCorrelation(&res.M1, &res.M2, core.LossTrendConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
