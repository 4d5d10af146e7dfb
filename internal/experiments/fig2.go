package experiments

import (
	"fmt"
	"math/rand"
	"time"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/isp"
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/stats"
)

// Figure2 reproduces the §4.1 illustration: the CDFs of X (single-replay
// throughput) and Y (aggregate simultaneous throughput), and the PDFs of
// O_diff vs T_diff, in (a) the per-client throttling scenario — curves
// overlap, MWU p tiny — and (b) an alternative scenario where the replays
// share a bottleneck with other traffic — no overlap, p large.
func Figure2(cfg Config) *Report {
	cfg.fill()
	dur := cfg.Duration
	if dur <= 0 {
		dur = 20 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tdiff := wehey.CellularTDiff(rng)

	report := &Report{
		ID:    "figure2",
		Title: "CDFs of single vs simultaneous throughput and PDFs of O_diff vs T_diff",
		Paper: "Figure 2: per-client scenario p = 7.54e-18 (<0.05, detected); alternative p = 0.99 (not detected)",
	}

	// (a) Per-client throttling: ISP1-style dedicated policer.
	p := isp.FiveISPs()[0]
	trig := p.DrawTrigger(rng)
	single := p.Replays(rng.Int63(), dur, trig, 1, true)
	sim := p.Replays(rng.Int63(), dur, trig, 2, true)
	xA := single[0].Throughput.Samples
	yA := measure.SumSamples(sim[0].Throughput.Samples, sim[1].Throughput.Samples)
	report.appendFig2Scenario(rng, "(a) per-client throttling", xA, yA, tdiff)

	// (b) Alternative: the two replays share a collective bottleneck with
	// other traffic; the aggregate exceeds the single replay's share.
	collective := func(n int, seed int64) []measure.Throughput {
		out := make([]measure.Throughput, n)
		res := cfg.Sim(SimSpec{App: TCPBulkApp, InputFactor: 1.5, BgShare: 0.5,
			Duration: dur, Seed: seed})
		if n == 1 {
			// Single replay through the same kind of bottleneck: rerun with
			// one path by using path 1's series only (p0 coincides with p1's
			// route in this scenario).
			out[0] = res.Tput[0]
			return out
		}
		out[0], out[1] = res.Tput[0], res.Tput[1]
		return out
	}
	sB := collective(1, cfg.Seed+10)
	mB := collective(2, cfg.Seed+11)
	xB := sB[0].Samples
	yB := measure.SumSamples(mB[0].Samples, mB[1].Samples)
	report.appendFig2Scenario(rng, "(b) alternative (shared bottleneck)", xB, yB, tdiff)
	return report
}

// appendFig2Scenario adds one scenario's four curves and its MWU verdict.
func (r *Report) appendFig2Scenario(rng *rand.Rand, name string, x, y, tdiff []float64) {
	res, err := core.ThroughputComparison(rng, x, y, tdiff, core.ThroughputCmpConfig{})
	if err != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("%s: %v", name, err))
		return
	}
	// CDFs of X and Y (Mbit/s).
	for _, c := range []struct {
		label   string
		samples []float64
	}{
		{name + " CDF X (single)", x},
		{name + " CDF Y (simultaneous sum)", y},
	} {
		e := stats.NewEmpirical(scale(c.samples, 1e-6))
		xs, fs := e.CDFPoints()
		r.Series = append(r.Series, Series{
			Name: c.label, XLabel: "throughput (Mbit/s)", YLabel: "CDF", X: xs, Y: fs,
		})
	}
	// PDFs of |O_diff| and |T_diff| via KDE on a shared grid.
	lo, hi := 0.0, 0.0
	for _, v := range append(append([]float64(nil), res.ODiff...), res.TDiff...) {
		if v > hi {
			hi = v
		}
	}
	grid := stats.Linspace(lo, hi*1.05+1e-9, 120)
	od := stats.NewEmpirical(res.ODiff)
	td := stats.NewEmpirical(res.TDiff)
	r.Series = append(r.Series,
		Series{Name: name + " PDF O_diff", XLabel: "|relative difference|", YLabel: "density", X: grid, Y: od.KDE(grid)},
		Series{Name: name + " PDF T_diff", XLabel: "|relative difference|", YLabel: "density", X: grid, Y: td.KDE(grid)},
	)
	r.Notes = append(r.Notes, fmt.Sprintf("%s: MWU p = %.3g → common bottleneck = %v", name, res.P, res.CommonBottleneck))
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v * f
	}
	return out
}
