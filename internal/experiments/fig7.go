package experiments

import (
	"fmt"
	"time"
)

// Figure7 reproduces the severe-throttling limit study (§6.3): TCP
// simultaneous replays with RTTs ≈35 ms and increasingly harsh throttling
// (higher input/rate factors, larger background shares). Each experiment
// becomes one point (average retransmission rate, average queueing delay),
// classified as true positive or false negative. The paper's finding: FN
// concentrates above ~20% retransmission rate, where too-frequent losses
// desynchronize the two flows beyond what pacing can absorb.
func Figure7(cfg Config) *Report {
	cfg.fill()
	seeds := cfg.trials(1, 4)
	// Push beyond the Table 2 grid: the paper's severe-throttling study
	// reaches 50% retransmission rates.
	factors := []float64{1.5, 2, 2.5, 3.5, 5, 6.5, 8}
	shares := DefaultGrid().BgShares

	type point struct {
		retrans float64
		delay   time.Duration
		fn      bool
	}
	var specs []SimSpec
	for _, f := range factors {
		for _, share := range shares {
			for s := 0; s < seeds; s++ {
				specs = append(specs, SimSpec{
					App:         TCPBulkApp,
					InputFactor: f,
					BgShare:     share,
					RTT1:        35 * time.Millisecond,
					RTT2:        35 * time.Millisecond,
					Duration:    cfg.Duration,
					Seed:        specSeed(cfg.Seed, "figure7", fmt.Sprintf("f=%g/share=%g", f, share), s),
				})
			}
		}
	}
	type outcome struct {
		p  point
		ok bool
	}
	outcomes := ForEach(len(specs), cfg.workers(), func(i int) outcome {
		t := cfg.trial(specs[i])
		v, err := t.verdict()
		if err != nil {
			return outcome{}
		}
		return outcome{ok: true, p: point{
			retrans: (t.res.RetransRate[0] + t.res.RetransRate[1]) / 2,
			delay:   (t.res.QueueDelay[0] + t.res.QueueDelay[1]) / 2,
			fn:      !v.LocalizedToISP,
		}}
	})
	var points []point
	for _, o := range outcomes {
		if o.ok {
			points = append(points, o.p)
		}
	}

	var tpX, tpY, fnX, fnY []float64
	var fnLow, fnHigh, nLow, nHigh int
	for _, p := range points {
		x := p.retrans * 100
		y := float64(p.delay) / float64(time.Millisecond)
		if p.retrans > 0.2 {
			nHigh++
			if p.fn {
				fnHigh++
			}
		} else {
			nLow++
			if p.fn {
				fnLow++
			}
		}
		if p.fn {
			fnX = append(fnX, x)
			fnY = append(fnY, y)
		} else {
			tpX = append(tpX, x)
			tpY = append(tpY, y)
		}
	}

	return &Report{
		ID:    "figure7",
		Title: "False negatives vs TCP retransmission rate under severe throttling (RTT ≈ 35 ms)",
		Paper: "Figure 7 + §6.3: overall FN 19.2%, concentrated above 20% retransmission rate",
		Series: []Series{
			{Name: "true positives", XLabel: "avg retransmission rate (%)", YLabel: "avg queueing delay (ms)", X: tpX, Y: tpY},
			{Name: "false negatives", XLabel: "avg retransmission rate (%)", YLabel: "avg queueing delay (ms)", X: fnX, Y: fnY},
		},
		Notes: []string{
			fmt.Sprintf("FN with retrans ≤ 20%%: %s (%d runs); FN with retrans > 20%%: %s (%d runs); overall %s",
				pct(fnLow, nLow), nLow, pct(fnHigh, nHigh), nHigh, pct(fnLow+fnHigh, nLow+nHigh)),
		},
	}
}
