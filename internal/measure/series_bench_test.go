package measure_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/measure"
)

// BenchmarkLossSweep builds the nine filtered loss-rate series of Alg. 1's
// default sweep from the measurements of a simulated 45 s trial (≈25 000
// timestamps over both paths): as recorded, in ascending order, and with
// each log shuffled, which takes the division path for nearly every event.
func BenchmarkLossSweep(b *testing.B) {
	for _, app := range []string{experiments.TCPBulkApp, "zoom"} {
		res := experiments.RunSim(experiments.SimSpec{App: app, Seed: 1})
		sizes := measure.IntervalSweep(measure.MaxRTT(&res.M1, &res.M2), 10, 50, 5)
		rng := rand.New(rand.NewSource(1))
		shuffled := func(ts []time.Duration) []time.Duration {
			out := append([]time.Duration(nil), ts...)
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		}
		u1, u2 := res.M1, res.M2
		u1.Tx, u1.Loss, u2.Tx, u2.Loss = shuffled(u1.Tx), shuffled(u1.Loss), shuffled(u2.Tx), shuffled(u2.Loss)
		for _, c := range []struct {
			name   string
			m1, m2 *measure.Path
		}{{"sorted", &res.M1, &res.M2}, {"unsorted", &u1, &u2}} {
			b.Run(app+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				retained := 0
				for i := 0; i < b.N; i++ {
					sweep := measure.NewLossSweep(c.m1, c.m2, sizes, measure.MinPacketsPerInterval)
					for j := range sizes {
						r1, _ := sweep.Rates(j)
						retained += len(r1)
					}
				}
				if retained == 0 {
					b.Fatal("no interval retained at any size")
				}
			})
		}
	}
}
