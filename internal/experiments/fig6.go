package experiments

import (
	"fmt"
	"time"

	"github.com/nal-epfl/wehey/internal/tomo"
)

// Figure6 reproduces the alternative-designs comparison (§6.2): the
// false-negative rate of WeHeY's loss-trend correlation vs the best
// classic-tomography baseline (BinLossTomoNoParams, Alg. 4), replaying
// modified (paced TCP / Poisson UDP) vs unmodified traces, over the §6.2
// rate-limiter grid with the limiter on the common link sequence.
//
// It also reports the §6.2 accounting: runs where WeHe itself would not
// have detected differentiation (insignificant throttling) are excluded,
// mirroring the paper's 360→319 filtering.
func Figure6(cfg Config) *Report {
	cfg.fill()
	g := DefaultGrid()
	seeds := cfg.trials(1, 5)
	factors := g.InputFactors
	queues := g.QueueFactors
	if !cfg.Full {
		factors = factors[:2]
		queues = queues[:2]
	}

	type cell struct {
		runs, excluded     int
		fnTrend, fnClassic int
	}
	results := map[string]*cell{}
	key := func(app string, modified bool) string {
		m := "unmodified"
		if modified {
			m = "modified"
		}
		return app + "/" + m
	}

	var specs []SimSpec
	var keys []string
	for _, app := range g.AllApps() {
		for _, modified := range []bool{true, false} {
			results[key(app, modified)] = &cell{}
			for _, f := range factors {
				for _, q := range queues {
					for s := 0; s < seeds; s++ {
						specs = append(specs, SimSpec{
							App:         app,
							InputFactor: f,
							QueueFactor: q,
							BgShare:     0.5,
							// The testbed's two paths (distinct GCP zones →
							// client) have unequal RTTs; path asymmetry is
							// what breaks binary tomography's same-interval
							// loss-status agreement (§4.3).
							RTT1:       25 * time.Millisecond,
							RTT2:       60 * time.Millisecond,
							Duration:   cfg.Duration,
							Unmodified: !modified,
							Seed:       specSeed(cfg.Seed, "figure6", fmt.Sprintf("%s/f=%g/q=%g", key(app, modified), f, q), s),
						})
						keys = append(keys, key(app, modified))
					}
				}
			}
		}
	}
	type verdict struct{ excluded, fnTrend, fnClassic bool }
	verdicts := ForEach(len(specs), cfg.workers(), func(i int) verdict {
		t := cfg.trial(specs[i])
		res := &t.res
		// §6.2 exclusion: insignificant throttling (the replay barely lost
		// anything → WeHe would not have flagged differentiation).
		if res.M1.LossRate() < 0.005 && res.M2.LossRate() < 0.005 {
			return verdict{excluded: true}
		}
		var v verdict
		if lv, err := t.verdict(); err != nil || !lv.LocalizedToISP {
			v.fnTrend = true
		}
		if !tomo.BinLossTomoNoParams(&res.M1, &res.M2, tomo.NoParamsConfig{}).CommonBottleneck {
			v.fnClassic = true
		}
		return v
	})
	total := len(specs)
	for i, v := range verdicts {
		c := results[keys[i]]
		switch {
		case v.excluded:
			c.excluded++
		default:
			c.runs++
			if v.fnTrend {
				c.fnTrend++
			}
			if v.fnClassic {
				c.fnClassic++
			}
		}
	}

	report := &Report{
		ID:    "figure6",
		Title: "False-negative rate of alternative designs (limiter on the common link)",
		Paper: "Figure 6: loss-trend + modified traces → FN 0; classic tomography +66–82% (TCP); unmodified traces worse still",
	}
	var rows [][]string
	excludedTotal := 0
	for _, app := range g.AllApps() {
		for _, modified := range []bool{true, false} {
			c := results[key(app, modified)]
			excludedTotal += c.excluded
			label := "unmodified"
			if modified {
				label = "modified"
			}
			rows = append(rows, []string{
				app, label,
				pct(c.fnTrend, c.runs),
				pct(c.fnClassic, c.runs),
				fmt.Sprintf("%d", c.runs),
			})
		}
	}
	report.Tables = []Table{{
		Header: []string{"trace pair", "replay", "FN loss-trend", "FN BinLossTomoNoParams", "runs"},
		Rows:   rows,
	}}
	report.Notes = append(report.Notes,
		fmt.Sprintf("%d experiments, %d excluded for insignificant throttling (paper: 360 run, 41 excluded, 319 analysed)", total, excludedTotal),
		"modified = paced TCP / Poisson-retimed UDP (§3.4); unmodified = recorded timing",
	)
	return report
}
