// Command wehey-analyze runs WeHeY's common-bottleneck detection offline
// on a recorded measurement session (the JSON a server persists after a
// simultaneous replay; see internal/measure.Session).
//
// Usage:
//
//	wehey-analyze -session session.json
//	wehey-analyze -session session.json -fp 0.01
//	wehey-analyze -merge p1.json,p2.json -out session.json  # combine per-server records
//	wehey-analyze -example > session.json       # emit a sample session
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"github.com/nal-epfl/wehey"
	"github.com/nal-epfl/wehey/internal/core"
	"github.com/nal-epfl/wehey/internal/isp"
	"github.com/nal-epfl/wehey/internal/measure"
	"github.com/nal-epfl/wehey/internal/wehe"
)

func main() {
	var (
		sessionPath = flag.String("session", "", "measurement session JSON")
		merge       = flag.String("merge", "", "comma-separated record/session files to merge")
		out         = flag.String("out", "session.json", "output path for -merge")
		fp          = flag.Float64("fp", 0.05, "acceptable false-positive rate")
		seed        = flag.Int64("seed", 1, "Monte-Carlo seed")
		example     = flag.Bool("example", false, "write a sample session to stdout and exit")
	)
	flag.Parse()

	if *example {
		writeExample(*seed)
		return
	}
	if *merge != "" {
		mergeSessions(*merge, *out)
		return
	}
	if *sessionPath == "" {
		fmt.Fprintln(os.Stderr, "need -session (or -example)")
		os.Exit(2)
	}
	f, err := os.Open(*sessionPath)
	fatalIf(err)
	session, err := measure.ReadSession(f)
	f.Close()
	fatalIf(err)

	r1, ok1 := session.Find("p1")
	r2, ok2 := session.Find("p2")
	if !ok1 || !ok2 {
		fmt.Fprintln(os.Stderr, "session needs records for paths p1 and p2")
		os.Exit(2)
	}
	m1, err := r1.ToPath()
	fatalIf(err)
	m2, err := r2.ToPath()
	fatalIf(err)

	in := core.DetectorInput{M1: m1, M2: m2, TDiff: session.TDiff}
	if r0, ok := session.Find("p0"); ok {
		in.X = r0.ThroughputBps
		in.Y = measure.SumSamples(r1.ThroughputBps, r2.ThroughputBps)
	}

	loc := wehey.Localizer{
		Rand: rand.New(rand.NewSource(*seed)),
		Detector: core.DetectorConfig{
			Throughput: core.ThroughputCmpConfig{Alpha: *fp},
			LossTrend:  core.LossTrendConfig{FP: *fp},
		},
	}
	var v wehey.Verdict
	fatalIf(loc.Detect(&v, in))

	v.WriteDetail(os.Stdout)
	fmt.Printf("\nevidence: %s\n", v.Evidence)
	if !v.LocalizedToISP {
		os.Exit(3)
	}
}

// mergeSessions combines the per-server record files written by
// wehey-replay -record into one analyzable session.
func mergeSessions(list, out string) {
	merged := &measure.Session{}
	for _, path := range strings.Split(list, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		fatalIf(err)
		s, err := measure.ReadSession(f)
		f.Close()
		fatalIf(err)
		merged.Records = append(merged.Records, s.Records...)
		if len(s.TDiff) > 0 {
			merged.TDiff = s.TDiff
		}
		if s.App != "" {
			merged.App = s.App
		}
	}
	f, err := os.Create(out)
	fatalIf(err)
	fatalIf(measure.WriteSession(f, merged))
	fatalIf(f.Close())
	fmt.Printf("merged %d records → %s\n", len(merged.Records), out)
}

// writeExample emits a sample session generated from the simulator so
// users can see the expected format (and test the tool end to end).
func writeExample(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := isp.FiveISPs()[0]
	trig := p.DrawTrigger(rng)
	single := p.Replays(rng.Int63(), 15e9, trig, 1, true)
	sim := p.Replays(rng.Int63(), 15e9, trig, 2, true)
	h := wehe.SynthHistory(rng, wehe.SynthHistorySpec{Clients: 12, TestsPerClient: 9, Spread: 0.15})

	session := &measure.Session{
		Client:  "cl-0000001",
		App:     "netflix",
		Carrier: "carrier-1",
		TDiff:   h.TDiff("", "netflix", "carrier-1"),
	}
	m0 := single[0].Measurements
	session.Records = append(session.Records,
		measure.NewRecord("p0", &m0, single[0].Throughput))
	for i, out := range sim {
		m := out.Measurements
		session.Records = append(session.Records,
			measure.NewRecord(fmt.Sprintf("p%d", i+1), &m, out.Throughput))
	}
	fatalIf(measure.WriteSession(os.Stdout, session))
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wehey-analyze:", err)
		os.Exit(1)
	}
}
