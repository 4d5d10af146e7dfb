// Command wehey-localize runs a complete WeHeY localization against an
// emulated ISP: WeHe detection on p0, simultaneous replays on p1/p2,
// differentiation confirmation, and common-bottleneck detection.
//
// Usage:
//
//	wehey-localize -isp ISP1                 # per-client throttling
//	wehey-localize -isp ISP5                 # conditional throttling (usually fails)
//	wehey-localize -collective               # collective throttling (loss-trend path, 45 s replays)
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
	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/isp"
)

func main() {
	var (
		ispName    = flag.String("isp", "ISP1", "ISP profile (ISP1..ISP5)")
		collective = flag.Bool("collective", false, "collective per-service throttling instead of per-client")
		tb         = flag.Bool("testbed", false, "replay over real UDP sockets through a loopback middlebox")
		duration   = flag.Duration("duration", 0, "replay duration (0 = the scenario's default: 20s per-client, 45s collective, 5s testbed)")
		seed       = flag.Int64("seed", 1, "random seed")
		verbose    = flag.Bool("v", false, "print algorithm details")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	tdiff := wehey.CellularTDiff(rng)

	var session wehey.ReplaySession
	if *tb {
		dur := *duration
		if dur <= 0 || dur > 8*time.Second {
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
		dur := *duration
		if dur <= 0 {
			dur = 45 * time.Second // the paper's minimum: the loss-trend detector needs it
		}
		fmt.Printf("scenario: collective per-service throttling (shared bottleneck, %v replays)\n", dur)
		session = experiments.NewSpecSession(rng, experiments.SimSpec{
			App:         experiments.TCPBulkApp,
			InputFactor: 2.5, // Table 2's severe end: mild loss hides from WeHe
			Duration:    dur,
		})
	} else {
		profile, ok := findProfile(*ispName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown ISP %q; have ISP1..ISP5\n", *ispName)
			os.Exit(2)
		}
		ss := wehey.NewSimSession(rng, profile, *duration)
		fmt.Printf("scenario: %s (plan rate %.1f Mbit/s, RTT %v, %v replays)\n",
			profile.Name, profile.PlanRate/1e6, profile.RTT, ss.Duration)
		session = ss
	}

	verdict, err := (&wehey.Localizer{Rand: rng}).Localize(session, tdiff)
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
		fmt.Println()
		verdict.WriteDetail(os.Stdout)
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
