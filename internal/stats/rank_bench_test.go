package stats

import (
	"fmt"
	"math/rand"
	"testing"
)

// lossRateSeries returns n per-interval loss rates as Alg. 1 feeds them to
// Spearman: ratios of small integer counts, so ties (zero above all) occur
// as they do in real series.
func lossRateSeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		tx := 40 + rng.Intn(200)
		out[i] = float64(rng.Intn(1+tx/8)) / float64(tx)
	}
	return out
}

// The sizes are the retained-interval counts the paper's sweep produces on a
// 45 s replay: ≈30 at σ = 50 RTT, ≈100 at σ = 10 RTT, and 450 for a
// ten-minute replay.
var rankBenchSizes = []int{30, 100, 450}

func BenchmarkRanks(b *testing.B) {
	for _, n := range rankBenchSizes {
		xs := lossRateSeries(rand.New(rand.NewSource(1)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Ranks(xs)
			}
		})
	}
}

func BenchmarkSpearman(b *testing.B) {
	for _, n := range rankBenchSizes {
		rng := rand.New(rand.NewSource(2))
		x, y := lossRateSeries(rng, n), lossRateSeries(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Spearman(x, y, Greater); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMannWhitneyU is the throughput comparison's test at WeHe's
// size: 100 throughput intervals a side.
func BenchmarkMannWhitneyU(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, y := make([]float64, 100), make([]float64, 100)
	for i := range x {
		x[i] = 5e6 + 1e6*rng.NormFloat64()
		y[i] = 5.5e6 + 1e6*rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MannWhitneyU(x, y, Less); err != nil {
			b.Fatal(err)
		}
	}
}
