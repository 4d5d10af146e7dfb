// Collective throttling: the ISP rate-limits a service for *all* its
// users with one shared policer. The client's replays now share the
// bottleneck with other users' traffic, so the aggregate simultaneous
// throughput does not add up to the single-replay throughput and the
// throughput comparison finds nothing — this is the case WeHeY's
// loss-trend correlation algorithm (Alg. 1) exists for: the two paths'
// loss rates rise and fall together with the shared bottleneck's load.
//
// Run: go run ./examples/collective
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/experiments"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	tdiff := wehey.CellularTDiff(rng)

	session := experiments.NewSpecSession(rng, experiments.SimSpec{
		App:         experiments.TCPBulkApp,
		InputFactor: 2.5,              // Table 2's severe end (offered/rate at the limiter)
		Duration:    45 * time.Second, // the paper's minimum replay length
	})

	fmt.Println("scenario: collective per-service throttling (other users share the limiter)")
	fmt.Println("(the throughput comparison is expected to fail: the replays share the bottleneck with unknown traffic)")
	verdict, err := (&wehey.Localizer{Rand: rng}).Localize(session, tdiff)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	verdict.WriteDetail(os.Stdout)
	fmt.Println()
	fmt.Println(verdict)
}
