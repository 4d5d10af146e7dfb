package experiments

import (
	"fmt"
	"math/rand"
	"time"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/isp"
	"github.com/nal-epfl/wehey/internal/measure"
)

// ablationRuns generates a pool of FN-scenario and FP-scenario
// measurements shared by the detector ablations. The pool deliberately
// includes stressful configurations (severe throttling, asymmetric RTTs):
// at the easy defaults every design variant succeeds and the ablation
// would show nothing.
func ablationRuns(cfg Config) (fnRuns, fpRuns []SimResult) {
	trials := cfg.trials(2, 6)
	var fnSpecs, fpSpecs []SimSpec
	for _, f := range []float64{1.5, 2.5, 4} {
		for _, share := range []float64{0.5, 0.75} {
			for i := 0; i < trials; i++ {
				base := SimSpec{
					App: TCPBulkApp, InputFactor: f, BgShare: share,
					RTT1: 25 * time.Millisecond, RTT2: 60 * time.Millisecond,
					Duration: cfg.Duration,
				}
				cell := fmt.Sprintf("f=%g/share=%g", f, share)
				fn := base
				fn.Seed = specSeed(cfg.Seed, "ablation/fn", cell, i)
				fnSpecs = append(fnSpecs, fn)
				fp := base
				fp.Placement = LimiterNonCommon
				fp.Seed = specSeed(cfg.Seed, "ablation/fp", cell, i)
				fpSpecs = append(fpSpecs, fp)
			}
		}
	}
	all := cfg.Grid(append(append([]SimSpec(nil), fnSpecs...), fpSpecs...))
	return all[:len(fnSpecs)], all[len(fnSpecs):]
}

func countVerdicts(runs []SimResult, cfg core.LossTrendConfig) (positives int) {
	for i := range runs {
		lt, err := core.LossTrendCorrelation(&runs[i].M1, &runs[i].M2, cfg)
		if err == nil && lt.CommonBottleneck {
			positives++
		}
	}
	return positives
}

// AblationCorrelation compares Alg. 1's Spearman correlation against a
// Pearson variant on the same measurements. Spearman is the paper's choice
// for its rank-based outlier robustness.
func AblationCorrelation(cfg Config) *Report {
	cfg.fill()
	fnRuns, fpRuns := ablationRuns(cfg)
	rows := [][]string{}
	for _, v := range []struct {
		name string
		kind core.CorrelationKind
	}{
		{"Spearman (paper)", core.SpearmanCorrelation},
		{"Pearson", core.PearsonCorrelation},
	} {
		c := core.LossTrendConfig{Correlation: v.kind}
		tp := countVerdicts(fnRuns, c)
		fp := countVerdicts(fpRuns, c)
		rows = append(rows, []string{
			v.name,
			pct(len(fnRuns)-tp, len(fnRuns)),
			pct(fp, len(fpRuns)),
		})
	}
	return &Report{
		ID:     "ablation-correlation",
		Title:  "Ablation: correlation statistic in the loss-trend algorithm",
		Paper:  "§4.2 picks Spearman for rank-based outlier robustness",
		Tables: []Table{{Header: []string{"statistic", "FN", "FP"}, Rows: rows}},
	}
}

// AblationIntervals compares the 10–50 RTT interval sweep against single
// interval sizes (the sweep is the paper's guard against picking a bad σ).
func AblationIntervals(cfg Config) *Report {
	cfg.fill()
	fnRuns, fpRuns := ablationRuns(cfg)
	rows := [][]string{}
	for _, v := range []struct {
		name         string
		lo, hi, step int
	}{
		{"sweep 10–50 RTT (paper)", 10, 50, 5},
		{"single σ = 10 RTT", 10, 10, 5},
		{"single σ = 50 RTT", 50, 50, 5},
	} {
		c := core.LossTrendConfig{LoRTTs: v.lo, HiRTTs: v.hi, StepRTTs: v.step}
		tp := countVerdicts(fnRuns, c)
		fp := countVerdicts(fpRuns, c)
		rows = append(rows, []string{v.name, pct(len(fnRuns)-tp, len(fnRuns)), pct(fp, len(fpRuns))})
	}
	return &Report{
		ID:     "ablation-intervals",
		Title:  "Ablation: interval-size sweep vs a single interval size",
		Paper:  "§4.2: iterating over sizes makes the algorithm conservative toward false positives",
		Tables: []Table{{Header: []string{"interval policy", "FN", "FP"}, Rows: rows}},
	}
}

// AblationVote compares the paper's >1−FP vote threshold against a simple
// majority vote across interval sizes.
func AblationVote(cfg Config) *Report {
	cfg.fill()
	fnRuns, fpRuns := ablationRuns(cfg)
	majority := func(runs []SimResult) int {
		positives := 0
		for i := range runs {
			lt, err := core.LossTrendCorrelation(&runs[i].M1, &runs[i].M2, core.LossTrendConfig{})
			if err != nil {
				continue
			}
			if lt.Sizes > 0 && lt.Correlations*2 > lt.Sizes {
				positives++
			}
		}
		return positives
	}
	strict := core.LossTrendConfig{}
	rows := [][]string{
		{"all sizes must correlate (paper)",
			pct(len(fnRuns)-countVerdicts(fnRuns, strict), len(fnRuns)),
			pct(countVerdicts(fpRuns, strict), len(fpRuns))},
		{"majority of sizes",
			pct(len(fnRuns)-majority(fnRuns), len(fnRuns)),
			pct(majority(fpRuns), len(fpRuns))},
	}
	return &Report{
		ID:     "ablation-vote",
		Title:  "Ablation: vote threshold across interval sizes",
		Paper:  "§4.2: requiring a 1−FP fraction keeps the FP rate at the target at the cost of some FN",
		Tables: []Table{{Header: []string{"decision rule", "FN", "FP"}, Rows: rows}},
	}
}

// AblationMWU compares the Mann-Whitney U test of §4.1 against KS- and
// Welch-based variants on per-client vs alternative scenarios.
func AblationMWU(cfg Config) *Report {
	cfg.fill()
	trials := cfg.trials(8, 24)
	rng := rand.New(rand.NewSource(cfg.Seed + 9500))
	tdiff := wehey.CellularTDiff(rng)
	dur := cfg.Duration
	if dur <= 0 {
		dur = 20 * time.Second
	}
	p := isp.FiveISPs()[0]

	// Outlier contamination: WeHe's historical data has occasional wild
	// relative differences (network blips, app restarts). The paper picks
	// MWU over KS and the t-test precisely for robustness to these.
	contaminate := func(td []float64, rng *rand.Rand) []float64 {
		out := append([]float64(nil), td...)
		for i := range out {
			if rng.Float64() < 0.08 {
				out[i] = 2 + 3*rng.Float64() // wild historical outlier
				if rng.Intn(2) == 0 {
					out[i] = -out[i]
				}
			}
		}
		return out
	}

	type counts struct{ fn, fp, fnDirty, fpDirty, runs int }
	variants := []struct {
		name string
		test core.ThroughputTest
	}{
		{"Mann-Whitney U (paper)", core.MWUTest},
		{"Kolmogorov-Smirnov", core.KSTest},
		{"Welch t", core.WelchTest},
	}
	perTrial := ForEach(trials, cfg.workers(), func(i int) []counts {
		trng := rand.New(rand.NewSource(specSeed(cfg.Seed, "ablation-mwu", "trial", i)))
		trig := p.DrawTrigger(trng)
		single := p.Replays(trng.Int63(), dur, trig, 1, true)
		sim := p.Replays(trng.Int63(), dur, trig, 2, true)
		sim3 := p.Replays(trng.Int63(), dur, trig, 3, true)
		x := single[0].Throughput.Samples
		y := measure.SumSamples(sim[0].Throughput.Samples, sim[1].Throughput.Samples)
		ySanity := measure.SumSamples(sim3[0].Throughput.Samples, sim3[1].Throughput.Samples)
		dirty := contaminate(tdiff, trng)
		tally := make([]counts, len(variants))
		for vi, v := range variants {
			c := core.ThroughputCmpConfig{Test: v.test}
			if res, err := core.ThroughputComparison(trng, x, y, tdiff, c); err == nil {
				tally[vi].runs++
				if !res.CommonBottleneck {
					tally[vi].fn++
				}
			}
			if res, err := core.ThroughputComparison(trng, x, ySanity, tdiff, c); err == nil {
				if res.CommonBottleneck {
					tally[vi].fp++
				}
			}
			if res, err := core.ThroughputComparison(trng, x, y, dirty, c); err == nil {
				if !res.CommonBottleneck {
					tally[vi].fnDirty++
				}
			}
			if res, err := core.ThroughputComparison(trng, x, ySanity, dirty, c); err == nil {
				if res.CommonBottleneck {
					tally[vi].fpDirty++
				}
			}
		}
		return tally
	})
	tally := make([]counts, len(variants))
	for _, tt := range perTrial {
		for vi := range tally {
			tally[vi].fn += tt[vi].fn
			tally[vi].fp += tt[vi].fp
			tally[vi].fnDirty += tt[vi].fnDirty
			tally[vi].fpDirty += tt[vi].fpDirty
			tally[vi].runs += tt[vi].runs
		}
	}
	rows := [][]string{}
	for vi, v := range variants {
		rows = append(rows, []string{
			v.name,
			pct(tally[vi].fn, tally[vi].runs), pct(tally[vi].fp, tally[vi].runs),
			pct(tally[vi].fnDirty, tally[vi].runs), pct(tally[vi].fpDirty, tally[vi].runs),
		})
	}
	return &Report{
		ID:    "ablation-mwu",
		Title: "Ablation: hypothesis test in the throughput comparison",
		Paper: "§4.1 rejects the T-test (distributional assumptions) and KS (outlier sensitivity) in favour of MWU",
		Tables: []Table{{
			Header: []string{"test", "FN", "FP", "FN (outliers in T_diff)", "FP (outliers in T_diff)"},
			Rows:   rows,
		}},
		Notes: []string{fmt.Sprintf("%d per-client and %d sanity-check runs per variant; the outlier columns contaminate 8%% of T_diff with wild values", trials, trials)},
	}
}

// AblationPacing isolates the §3.4 trace modifications: the FN rate of the
// loss-trend algorithm with paced vs unpaced TCP and Poisson vs recorded
// UDP timing (a compact view of Figure 6's message).
func AblationPacing(cfg Config) *Report {
	cfg.fill()
	trials := cfg.trials(3, 12)
	rows := [][]string{}
	variants := []struct {
		app      string
		modified bool
		label    string
	}{
		{TCPBulkApp, true, "TCP paced (paper)"},
		{TCPBulkApp, false, "TCP unpaced"},
		{"zoom", true, "UDP Poisson (paper)"},
		{"zoom", false, "UDP recorded timing"},
	}
	var specs []SimSpec
	for _, v := range variants {
		for i := 0; i < trials; i++ {
			specs = append(specs, SimSpec{
				App: v.app, InputFactor: 1.5, BgShare: 0.5,
				Unmodified: !v.modified, Duration: cfg.Duration,
				Seed: specSeed(cfg.Seed, "ablation-pacing", v.label, i),
			})
		}
	}
	for vi, tp := range cfg.localizedPer(specs, trials) {
		rows = append(rows, []string{variants[vi].label, pct(trials-tp, trials)})
	}
	return &Report{
		ID:     "ablation-pacing",
		Title:  "Ablation: replay modifications (TCP pacing, UDP Poisson retiming)",
		Paper:  "Figure 6: unmodified traces add 3–11% FN on top of the algorithm choice",
		Tables: []Table{{Header: []string{"replay mode", "FN"}, Rows: rows}},
	}
}
