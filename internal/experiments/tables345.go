package experiments

import (
	"fmt"
	"time"
)

// fnCellSpecs expands base into the severe-throttling parameter mix of
// §6.3 (input factors × background shares, trials each), seeding every run
// from its (experiment, cell, factor, share, trial) identity. Tables 3 and
// 4 both build on this mix ("we set the experimental parameters as in
// §6.2, except ...").
func fnCellSpecs(base SimSpec, baseSeed int64, experimentID, cellKey string, trials int) []SimSpec {
	var specs []SimSpec
	for _, f := range []float64{1.5, 2.5} {
		for _, share := range []float64{0.5, 0.75} {
			for k := 0; k < trials; k++ {
				spec := base
				spec.InputFactor = f
				spec.BgShare = share
				spec.Seed = specSeed(baseSeed, experimentID, fmt.Sprintf("%s/f=%g/share=%g", cellKey, f, share), k)
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

// localizedPer decides every spec through Localize on the worker pool and
// returns how many verdicts localized the differentiation in each
// consecutive block of n specs (one block per table cell), in block order.
// A detector error counts as not localized.
func (c Config) localizedPer(specs []SimSpec, n int) []int {
	hits := ForEach(len(specs), c.workers(), func(i int) bool {
		v, err := c.Localize(specs[i])
		return err == nil && v.LocalizedToISP
	})
	counts := make([]int, len(specs)/n)
	for i, hit := range hits {
		if hit {
			counts[i/n]++
		}
	}
	return counts
}

// Table3 reproduces the RTT limit study: RTT1 = 35 ms, RTT2 swept from
// 15 to 120 ms, limiter on the common link. FN degrades at 120 ms because
// the interval sweep (multiples of the larger RTT) leaves too few
// intervals per experiment.
func Table3(cfg Config) *Report {
	cfg.fill()
	trials := cfg.trials(1, 3)
	rtts := []time.Duration{15, 25, 35, 60, 120}
	for i := range rtts {
		rtts[i] *= time.Millisecond
	}

	header := []string{"pair"}
	tcpRow := []string{"TCP - FN"}
	udpRow := []string{"UDP - FN"}
	cellRuns := 4 * trials
	var specs []SimSpec
	for _, rtt2 := range rtts {
		header = append(header, fms(rtt2))
		base := SimSpec{
			RTT1: 35 * time.Millisecond, RTT2: rtt2,
			Duration: cfg.Duration,
		}
		base.App = TCPBulkApp
		specs = append(specs, fnCellSpecs(base, cfg.Seed, "table3", "tcp/rtt2="+fms(rtt2), trials)...)
		base.App = "zoom"
		specs = append(specs, fnCellSpecs(base, cfg.Seed, "table3", "udp/rtt2="+fms(rtt2), trials)...)
	}
	for i, tp := range cfg.localizedPer(specs, cellRuns) {
		if i%2 == 0 {
			tcpRow = append(tcpRow, pct(cellRuns-tp, cellRuns))
		} else {
			udpRow = append(udpRow, pct(cellRuns-tp, cellRuns))
		}
	}

	return &Report{
		ID:    "table3",
		Title: "False-negative rate for different RTT2 values (RTT1 = 35 ms)",
		Paper: "Table 3: TCP 21.66/25.86/28.33/31.66/50%; UDP 0/0/0/0/21.33% at 15/25/35/60/120 ms",
		Tables: []Table{{
			Header: header,
			Rows:   [][]string{tcpRow, udpRow},
		}},
		Notes: []string{fmt.Sprintf("%d runs per severe-throttling combo (4 per cell); degradation at 120 ms (ΔRTT = 85 ms) is the expected shape", trials)},
	}
}

// Table4 reproduces the congestion limit study: throttling on the common
// link plus standard congestion on the non-common links, at
// input/bandwidth ∈ {0.95, 1.05, 1.15}.
func Table4(cfg Config) *Report {
	cfg.fill()
	trials := cfg.trials(1, 3)
	factors := DefaultGrid().CongestionFactors

	header := []string{"pair"}
	udpRow := []string{"UDP - FN"}
	tcpRow := []string{"TCP - FN"}
	cellRuns := 4 * trials
	var specs []SimSpec
	for _, cf := range factors {
		header = append(header, fmt.Sprintf("%.2f", cf))
		base := SimSpec{
			RTT1: 35 * time.Millisecond, RTT2: 35 * time.Millisecond,
			CongestionFactor: cf,
			Duration:         cfg.Duration,
		}
		base.App = "zoom"
		specs = append(specs, fnCellSpecs(base, cfg.Seed, "table4", fmt.Sprintf("udp/cf=%g", cf), trials)...)
		base.App = TCPBulkApp
		specs = append(specs, fnCellSpecs(base, cfg.Seed, "table4", fmt.Sprintf("tcp/cf=%g", cf), trials)...)
	}
	for i, tp := range cfg.localizedPer(specs, cellRuns) {
		if i%2 == 0 {
			udpRow = append(udpRow, pct(cellRuns-tp, cellRuns))
		} else {
			tcpRow = append(tcpRow, pct(cellRuns-tp, cellRuns))
		}
	}

	return &Report{
		ID:    "table4",
		Title: "False-negative rate under severe congestion on the non-common links",
		Paper: "Table 4: UDP 0/0.38/2.38%; TCP 19.3/28/34.88% at 0.95/1.05/1.15 (arguably not real FNs: the dominant bottleneck moves)",
		Tables: []Table{{
			Header: header,
			Rows:   [][]string{udpRow, tcpRow},
		}},
		Notes: []string{fmt.Sprintf("%d runs per severe-throttling combo (4 per cell); FN must increase with congestion as the non-common links become the dominant bottlenecks", trials)},
	}
}

// Table5 reproduces the ultimate FP test: identically configured,
// independent rate limiters on each non-common link, per trace pair. The
// loss-trend correlation must stay at or below the 5% FP target.
func Table5(cfg Config) *Report {
	cfg.fill()
	trials := cfg.trials(4, 20)
	g := DefaultGrid()

	header := []string{}
	row := []string{}
	var specs []SimSpec
	for _, app := range g.AllApps() {
		label := app
		if app == TCPBulkApp {
			label = "TCP"
		}
		header = append(header, label)
		for i := 0; i < trials; i++ {
			// Vary limiter configs across trials, identical within each.
			f := g.InputFactors[i%len(g.InputFactors)]
			q := g.QueueFactors[i%len(g.QueueFactors)]
			specs = append(specs, SimSpec{
				App:         app,
				InputFactor: f,
				QueueFactor: q,
				BgShare:     0.5,
				Placement:   LimiterNonCommon,
				Duration:    cfg.Duration,
				Seed:        specSeed(cfg.Seed, "table5", app, i),
			})
		}
	}
	for _, fp := range cfg.localizedPer(specs, trials) {
		row = append(row, pct(fp, trials))
	}

	return &Report{
		ID:    "table5",
		Title: "False-positive rate under identical independent rate limiters",
		Paper: "Table 5: 1.13% (TCP), 2.5/1.67/3.75/3.27/2.5% (UDP apps) — at or below the 5% target",
		Tables: []Table{{
			Header: header,
			Rows:   [][]string{row},
		}},
		Notes: []string{fmt.Sprintf("%d runs per trace pair, limiter configs cycled over the Table 2 grid", trials)},
	}
}
