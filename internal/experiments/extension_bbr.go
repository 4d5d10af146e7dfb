package experiments

import (
	"fmt"
	"time"
)

// ExtensionBBR answers the §7 open question: "it is an open question how
// loss rate correlations would occur with BBR flows. On the one hand, BBR
// uses pacing like our approach. On the other hand, BBR adjusts its
// sending rate such that loss should occur only during the
// probe-bandwidth phase." It runs the standard FN and FP scenarios with
// the TCP replays under Reno vs BBR and compares the loss-trend
// correlation outcomes and the replays' loss characteristics.
func ExtensionBBR(cfg Config) *Report {
	cfg.fill()
	trials := cfg.trials(4, 16)

	type row struct {
		name      string
		bbr       bool
		placement LimiterPlacement
		detects   int
		runs      int
		lossSum   float64
	}
	rows := []*row{
		{name: "Reno replays, common limiter (FN scenario)", bbr: false, placement: LimiterCommon},
		{name: "BBR replays, common limiter (FN scenario)", bbr: true, placement: LimiterCommon},
		{name: "Reno replays, independent limiters (FP scenario)", bbr: false, placement: LimiterNonCommon},
		{name: "BBR replays, independent limiters (FP scenario)", bbr: true, placement: LimiterNonCommon},
	}
	var specs []SimSpec
	for _, r := range rows {
		for i := 0; i < trials; i++ {
			specs = append(specs, SimSpec{
				App:         TCPBulkApp,
				InputFactor: 1.5,
				BgShare:     0.5,
				RTT1:        25 * time.Millisecond,
				RTT2:        60 * time.Millisecond,
				Placement:   r.placement,
				BBR:         r.bbr,
				Duration:    cfg.Duration,
				Seed:        specSeed(cfg.Seed, "extension-bbr", r.name, i),
			})
		}
	}
	type verdict struct {
		loss    float64
		detects bool
	}
	verdicts := ForEach(len(specs), cfg.workers(), func(i int) verdict {
		t := cfg.trial(specs[i])
		lv, err := t.verdict()
		return verdict{
			loss:    (t.res.M1.LossRate() + t.res.M2.LossRate()) / 2,
			detects: err == nil && lv.LocalizedToISP,
		}
	})
	for idx, v := range verdicts {
		r := rows[idx/trials]
		r.runs++
		r.lossSum += v.loss
		if v.detects {
			r.detects++
		}
	}

	report := &Report{
		ID:    "extension-bbr",
		Title: "§7 open question: loss-trend correlation with BBR replay flows",
		Paper: "§7: BBR paces (helpful) but only loses during bandwidth probes (possibly harmful); the paper leaves the outcome open",
	}
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			r.name,
			pct(r.detects, r.runs),
			fmt.Sprintf("%.3f", r.lossSum/float64(r.runs)),
			fmt.Sprintf("%d", r.runs),
		})
	}
	report.Tables = []Table{{
		Header: []string{"scenario", "common bottleneck detected", "avg replay loss rate", "runs"},
		Rows:   tr,
	}}
	report.Notes = append(report.Notes,
		"FN scenarios should detect (high %), FP scenarios should not (≤5%); the BBR rows answer whether its loss pattern preserves the trend signal")
	return report
}
