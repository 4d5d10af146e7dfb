// Command wehey-twin answers token-bucket impairment questions from the
// analytical twin (internal/twin) — instantly, without running a
// simulation — and validates the twin against simulation ground truth.
//
// Usage:
//
//	wehey-twin tbf -rate 2e6 -burst 12500 -queue 60000 -pkt 1000 -offered 3.6e6 -horizon 10s [-check]
//	wehey-twin validate [-v]
//
// tbf prints the fluid token-bucket prediction (loss rate, mean queue
// delay, time to first drop) for one configuration; -check also runs the
// packet simulator on the same point and prints both. validate sweeps the
// TBF model and the hybrid fluid background against packet-simulation
// ground truth across the standard grids, one worker per CPU, and exits 1
// on any tolerance violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/nal-epfl/wehey/internal/twin"
	"github.com/nal-epfl/wehey/internal/twin/validate"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "tbf":
		tbfCmd(os.Args[2:])
	case "validate":
		validateCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  wehey-twin tbf -rate R -burst B -queue Q -pkt P -offered A -horizon D [-check]
  wehey-twin validate [-v]`)
	os.Exit(2)
}

func tbfCmd(args []string) {
	fs := flag.NewFlagSet("tbf", flag.ExitOnError)
	rate := fs.Float64("rate", 2e6, "token rate in bits/s (0 = blackhole past the burst)")
	burst := fs.Int("burst", 12500, "bucket size in bytes")
	queue := fs.Int("queue", 0, "queue limit in bytes (0 = pure policer)")
	pkt := fs.Int("pkt", 1000, "packet size in bytes")
	offered := fs.Float64("offered", 3e6, "offered load in bits/s")
	horizon := fs.Duration("horizon", 10*time.Second, "observation window")
	check := fs.Bool("check", false, "also run the packet simulator on this point")
	fs.Parse(args) // ExitOnError flag sets cannot return an error

	params := twin.TBFParams{
		Rate: *rate, Burst: *burst, QueueLimit: *queue,
		PacketSize: *pkt, Offered: *offered, Horizon: *horizon,
	}
	pred := twin.PredictTBF(params)
	fmt.Printf("model: loss %.4f  mean queue delay %v", pred.LossRate, pred.MeanQueueDelay.Round(time.Microsecond))
	if pred.Drops {
		fmt.Printf("  first drop %v", pred.FirstDrop.Round(time.Microsecond))
	} else {
		fmt.Printf("  no drops")
	}
	fmt.Println()
	if *check {
		meas := validate.RunTBFPoint(params, validate.CBR, 1)
		fmt.Printf("sim:   loss %.4f  mean queue delay %v", meas.LossRate, meas.MeanQueueDelay.Round(time.Microsecond))
		if meas.Drops {
			fmt.Printf("  first drop %v", meas.FirstDrop.Round(time.Microsecond))
		} else {
			fmt.Printf("  no drops")
		}
		fmt.Println()
	}
}

func validateCmd(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	verbose := fs.Bool("v", false, "print every point, not just violations")
	fs.Parse(args) // ExitOnError flag sets cannot return an error

	report := validate.Run()
	if *verbose || report.ViolationCount() > 0 {
		fmt.Print(report.Render())
	}
	fmt.Printf("points %d\n", len(report.TBF)+len(report.Hybrid))
	if n := report.ViolationCount(); n > 0 {
		fmt.Fprintf(os.Stderr, "wehey-twin: %d tolerance violations\n", n)
		os.Exit(1)
	}
	fmt.Println("twin and simulators agree within tolerance")
}
