// Command wehey-localize runs a complete WeHeY localization against an
// emulated ISP: WeHe detection on p0, simultaneous replays on p1/p2,
// differentiation confirmation, and common-bottleneck detection.
//
// Usage:
//
//	wehey-localize -isp ISP1                 # per-client throttling
//	wehey-localize -isp ISP5                 # conditional throttling (usually fails)
//	wehey-localize -collective               # collective throttling (loss-trend path)
//	wehey-localize -isp ISP3 -duration 30s -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/isp"
	"github.com/nal-epfl/wehey/internal/wehe"
)

func main() {
	var (
		ispName    = flag.String("isp", "ISP1", "ISP profile (ISP1..ISP5)")
		collective = flag.Bool("collective", false, "collective per-service throttling instead of per-client")
		tb         = flag.Bool("testbed", false, "replay over real UDP sockets through a loopback middlebox")
		duration   = flag.Duration("duration", 20*time.Second, "replay duration")
		seed       = flag.Int64("seed", 1, "random seed")
		verbose    = flag.Bool("v", false, "print algorithm details")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	history := wehe.SynthHistory(rng, wehe.SynthHistorySpec{
		Clients: 15, TestsPerClient: 9, Spread: 0.15,
	})
	localizer := &wehey.Localizer{Rand: rng, History: history}
	tdiff := localizer.TDiff("", "netflix", "carrier-1")

	var session wehey.ReplaySession
	if *tb {
		dur := *duration
		if dur > 8*time.Second {
			dur = 5 * time.Second // real wall-clock time; keep it short
		}
		fmt.Printf("scenario: loopback testbed over real UDP sockets (%v replays)\n", dur)
		ts, err := wehey.NewTestbedSession(context.Background(), wehey.TestbedConfig{Duration: dur, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		session = ts
	} else if *collective {
		fmt.Println("scenario: collective per-service throttling (shared bottleneck)")
		session = wehey.NewCollectiveSimSession(rng, wehey.CollectiveConfig{Duration: *duration})
	} else {
		profile, ok := findProfile(*ispName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown ISP %q; have ISP1..ISP5\n", *ispName)
			os.Exit(2)
		}
		fmt.Printf("scenario: %s (plan rate %.1f Mbit/s, RTT %v)\n",
			profile.Name, profile.PlanRate/1e6, profile.RTT)
		session = wehey.NewSimSession(rng, profile, *duration)
	}

	verdict, err := localizer.Localize(session, tdiff)
	if err != nil {
		fmt.Fprintln(os.Stderr, "localization failed:", err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Println("WeHe detection on p0:      ", verdict.WeHeDetected)
	fmt.Println("confirmed on both paths:   ", verdict.Confirmed)
	fmt.Println("common-bottleneck evidence:", verdict.Evidence)
	fmt.Println()
	fmt.Println("verdict:", verdict)

	if *verbose {
		if tc := verdict.Detail.Throughput; tc != nil {
			fmt.Printf("\nthroughput comparison: p = %.3g (common bottleneck: %v)\n", tc.P, tc.CommonBottleneck)
		}
		if lt := verdict.Detail.LossTrend; lt != nil {
			fmt.Printf("\nloss-trend correlation: %d/%d interval sizes correlated\n", lt.Correlations, lt.Sizes)
			for _, v := range lt.PerSize {
				fmt.Printf("  σ=%-8v intervals=%-4d ρ=%+.3f p=%.4f correlated=%v\n",
					v.Sigma, v.Intervals, v.Rho, v.P, v.Correlated)
			}
		}
	}
	if !verdict.LocalizedToISP && verdict.WeHeDetected {
		os.Exit(3) // detected but not localized
	}
}

func findProfile(name string) (isp.Profile, bool) {
	for _, p := range isp.FiveISPs() {
		if p.Name == name {
			return p, true
		}
	}
	return isp.Profile{}, false
}
