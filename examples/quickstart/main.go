// Quickstart: localize traffic differentiation on an emulated cellular ISP
// that throttles video traffic with a per-client policer.
//
// The flow mirrors a real WeHeY user test (§3.1 of the paper):
//
//  1. WeHe replays the original and bit-inverted traces on p0 and detects
//     differentiation (the original is throttled, the control is not);
//  2. two servers replay simultaneously on paths p1, p2 that converge
//     inside the ISP;
//  3. both paths re-confirm the differentiation;
//  4. the common-bottleneck detector finds that the aggregate simultaneous
//     throughput matches the single-replay throughput — a dedicated
//     per-client bottleneck — so the differentiation is localized to the
//     client's ISP.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/isp"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// Historical WeHe tests provide T_diff — what "normal" throughput
	// variation looks like for this client population.
	tdiff := wehey.CellularTDiff(rng)

	// ISP1: an always-on per-client policer at the plan rate (4 Mbit/s,
	// "video at DVD quality").
	profile := isp.FiveISPs()[0]
	fmt.Printf("testing against %s: plan rate %.1f Mbit/s, unthrottled %.1f Mbit/s\n\n",
		profile.Name, profile.PlanRate/1e6, profile.UnthrottledRate/1e6)

	session := wehey.NewSimSession(rng, profile, 20*time.Second)
	verdict, err := (&wehey.Localizer{Rand: rng}).Localize(session, tdiff)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("WeHe detected differentiation:", verdict.WeHeDetected)
	fmt.Println("confirmed on both paths:      ", verdict.Confirmed)
	fmt.Println("evidence:                     ", verdict.Evidence)
	fmt.Println()
	fmt.Println(verdict)
}
