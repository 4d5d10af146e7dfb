// Command wehey-submit is the operator client for wehey-serve.
//
// Usage:
//
//	wehey-submit -server http://127.0.0.1:9400 submit -backend sim -seed 7
//	wehey-submit -server http://127.0.0.1:9400 submit -backend testbed -pair A -wait
//	wehey-submit -server http://127.0.0.1:9400 submit -backend null -batch 1000
//	wehey-submit -server http://127.0.0.1:9400 get j000001
//	wehey-submit -server http://127.0.0.1:9400 status j000001 j000002 j000003
//	wehey-submit -server http://127.0.0.1:9400 wait j000001
//	wehey-submit -server http://127.0.0.1:9400 cancel j000001
//	wehey-submit -server http://127.0.0.1:9400 list
//	wehey-submit -server http://127.0.0.1:9400 metrics
//
// submit prints the assigned job ID on the first line (scripting-friendly);
// with -wait it polls until the job is terminal and exits non-zero unless
// the job is done. With -batch N it submits N copies of the spec — seeds
// incrementing from -seed — in one round-trip (one server-side journal
// fsync for the whole batch) and prints one job ID per line. status takes
// many IDs and fetches them in one round-trip; list pages through the
// server cursor transparently, so huge campaigns list in bounded memory
// per request.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/nal-epfl/wehey/internal/service"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:9400", "wehey-serve base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c := &service.Client{BaseURL: *server}
	ctx := context.Background()

	switch args[0] {
	case "submit":
		submit(ctx, c, args[1:])
	case "get":
		needID(args)
		job, err := c.Job(ctx, args[1])
		fatalIf(err)
		printJSON(job)
	case "status":
		needID(args)
		jobs, missing, err := c.StatusBatch(ctx, args[1:])
		fatalIf(err)
		printJSON(service.BatchStatusResponse{Jobs: jobs, Missing: missing})
	case "wait":
		needID(args)
		job, err := c.Await(ctx, args[1], 0)
		fatalIf(err)
		printJSON(job)
		exitForState(job)
	case "cancel":
		needID(args)
		job, err := c.Cancel(ctx, args[1])
		fatalIf(err)
		printJSON(job)
	case "list":
		jobs, err := c.Jobs(ctx)
		fatalIf(err)
		printJSON(jobs)
	case "metrics":
		m, err := c.Metrics(ctx)
		fatalIf(err)
		printJSON(m)
	default:
		usage()
	}
}

func submit(ctx context.Context, c *service.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		backend  = fs.String("backend", service.BackendSim, "sim | testbed | null")
		priority = fs.Int("priority", 0, "queue priority (higher runs first)")
		pair     = fs.String("pair", "", "server pair the job occupies (jobs sharing a pair serialize)")
		seed     = fs.Int64("seed", 1, "job seed (identical sim specs share a cache entry)")
		deadline = fs.Duration("deadline", 0, "per-attempt deadline (0 = server default)")
		attempts = fs.Int("attempts", 0, "max attempts (0 = server default)")
		app      = fs.String("app", "", "application trace (default per backend)")
		duration = fs.Duration("duration", 0, "replay duration (0 = backend default)")
		batch    = fs.Int("batch", 1, "submit N copies of the spec (seeds incrementing from -seed) in one round-trip")
		wait     = fs.Bool("wait", false, "poll until the job is terminal (single submissions only)")
	)
	fs.Parse(args) // ExitOnError: Parse never returns an error
	if *batch < 1 {
		fatalIf(fmt.Errorf("-batch must be at least 1, got %d", *batch))
	}

	makeSpec := func(seed int64) service.Spec {
		spec := service.Spec{
			Backend:     *backend,
			Priority:    *priority,
			ServerPair:  *pair,
			Seed:        seed,
			Deadline:    *deadline,
			MaxAttempts: *attempts,
		}
		switch *backend {
		case service.BackendSim:
			spec.Sim = &service.SimJob{App: *app, Duration: *duration}
		case service.BackendTestbed:
			spec.Testbed = &service.TestbedJob{App: *app, Duration: *duration}
		}
		return spec
	}

	if *batch > 1 {
		specs := make([]service.Spec, *batch)
		for i := range specs {
			specs[i] = makeSpec(*seed + int64(i))
		}
		jobs, err := c.SubmitBatch(ctx, specs)
		fatalIf(err)
		for _, job := range jobs {
			fmt.Println(job.ID)
		}
		return
	}

	job, err := c.Submit(ctx, makeSpec(*seed))
	fatalIf(err)
	fmt.Println(job.ID)
	if !*wait {
		return
	}
	if !job.State.Terminal() { // a job that ran inside its submit's fsync answers the POST done
		job, err = c.Await(ctx, job.ID, 250*time.Millisecond)
		fatalIf(err)
	}
	printJSON(job)
	exitForState(job)
}

func exitForState(job service.Job) {
	if job.State != service.StateDone {
		os.Exit(1)
	}
}

func needID(args []string) {
	if len(args) < 2 {
		usage()
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v) // stdout write failures have no recovery path here
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wehey-submit [-server URL] {submit|get|status|wait|cancel|list|metrics} ...")
	os.Exit(2)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "wehey-submit: %v\n", err)
		os.Exit(1)
	}
}
