package experiments

import (
	"fmt"
	"math/rand"
	"time"

	wehey "github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/isp"
	"github.com/nal-epfl/wehey/internal/measure"
)

// localize runs one WeHeY test against the profile through the public
// API, with extra replays beside p1 and p2 in the simultaneous phase; one
// rng drives both the session and the detector. A SimSession never fails
// a replay, so the only errors are the detectors', and the partial verdict
// that comes with one is not localized.
func localize(rng *rand.Rand, p isp.Profile, dur time.Duration, extra int, tdiff []float64) wehey.Verdict {
	s := wehey.NewSimSession(rng, p, dur)
	s.ExtraReplays = extra
	v, _ := (&wehey.Localizer{Rand: rng}).Localize(s, tdiff)
	return v
}

// Table1 reproduces the in-the-wild evaluation (§5): the successful
// localization rate of WeHeY's throughput-comparison algorithm against the
// five cellular-ISP throttling profiles, plus the sanity-check row (a
// third concurrent replay must suppress detection).
func Table1(cfg Config) *Report {
	cfg.fill()
	trials := cfg.trials(12, 50)
	dur := cfg.Duration
	if dur <= 0 {
		dur = 20 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tdiff := wehey.CellularTDiff(rng)

	profiles := isp.FiveISPs()
	header := []string{"metric"}
	rateRow := []string{"localization rate"}
	weheRow := []string{"WeHe detected"}
	sanityRow := []string{"sanity-check false detections"}

	sanityTrials := trials / 3
	if sanityTrials < 3 {
		sanityTrials = 3
	}
	for _, p := range profiles {
		p := p
		header = append(header, p.Name)
		// Each trial runs on its own identity-derived rng, so trials are
		// independent of one another and safe to execute concurrently.
		basic := ForEach(trials, cfg.workers(), func(i int) wehey.Verdict {
			trng := rand.New(rand.NewSource(specSeed(cfg.Seed, "table1", p.Name, i)))
			return localize(trng, p, dur, 0, tdiff)
		})
		localized, detected := 0, 0
		for _, v := range basic {
			if v.WeHeDetected {
				detected++
			}
			if v.LocalizedToISP {
				localized++
			}
		}
		rateRow = append(rateRow, pct(localized, trials))
		weheRow = append(weheRow, pct(detected, trials))

		sanityHits := ForEach(sanityTrials, cfg.workers(), func(i int) bool {
			trng := rand.New(rand.NewSource(specSeed(cfg.Seed, "table1", p.Name+"/sanity", i)))
			return localize(trng, p, dur, 1, tdiff).LocalizedToISP
		})
		falsePos := 0
		for _, hit := range sanityHits {
			if hit {
				falsePos++
			}
		}
		sanityRow = append(sanityRow, fmt.Sprintf("%d/%d", falsePos, sanityTrials))
	}

	return &Report{
		ID:    "table1",
		Title: "Successful localization rate of traffic differentiation in five ISP profiles",
		Paper: "Table 1: 89.8% / 89.83% / 94% / 98.18% / 16.28%; sanity check misbehaved once across all tests",
		Tables: []Table{{
			Header: header,
			Rows:   [][]string{rateRow, weheRow, sanityRow},
		}},
		Notes: []string{
			fmt.Sprintf("%d basic tests and %d sanity-check tests per profile, %v replays", trials, sanityTrials, dur),
			"ISP5 implements conditional (rate-triggered) throttling; its failures are the Figure 4 mechanism",
		},
	}
}

// Figure4 reproduces the ISP5 throughput-over-time comparison: during the
// simultaneous replay the fixed-rate throttling engages within seconds,
// during the single replay much later, so the aggregate simultaneous
// throughput does not add up to the single-replay throughput.
func Figure4(cfg Config) *Report {
	cfg.fill()
	dur := cfg.Duration
	if dur <= 0 {
		dur = 20 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tdiff := wehey.CellularTDiff(rng)
	p := isp.FiveISPs()[4] // ISP5
	p.TriggerJitter = 0    // the representative test of the figure

	v := localize(rng, p, dur, 0, tdiff)

	interval := dur / measure.WeHeIntervals
	toXY := func(t []float64) ([]float64, []float64) {
		xs := make([]float64, len(t))
		ys := make([]float64, len(t))
		for i := range t {
			xs[i] = float64(i) * interval.Seconds()
			ys[i] = t[i] / 1e6
		}
		return xs, ys
	}
	sx, sy := toXY(v.X)
	mx, my := toXY(v.Y)

	report := &Report{
		ID:    "figure4",
		Title: "Throughput over time during the single and simultaneous original replays (ISP5)",
		Paper: "Figure 4: simultaneous replay throttles to 2.5 Mbit/s after ~5 s, single replay after ~22 s",
		Series: []Series{
			{Name: "single replay", XLabel: "time (s)", YLabel: "Mbit/s", X: sx, Y: sy},
			{Name: "simultaneous replay (aggregate)", XLabel: "time (s)", YLabel: "Mbit/s", X: mx, Y: my},
		},
		Notes: []string{
			fmt.Sprintf("localized=%v (the throughput comparison fails on this profile most of the time)", v.LocalizedToISP),
		},
	}
	return report
}
