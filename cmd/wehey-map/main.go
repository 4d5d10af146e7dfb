// Command wehey-map is the fleet-level inference client: it plants
// ground-truth campaigns on a wehey-serve, follows their per-session
// verdicts, and renders ISP-scale differentiation maps gated by the
// boolean-tomography identifiability pass (DESIGN.md §16).
//
// Usage:
//
//	wehey-map -server http://127.0.0.1:9400 plant -name gt -throttle 3 -starve 7 -sessions 2048
//	wehey-map -server http://127.0.0.1:9400 watch -name gt -throttle 3 -starve 7 -sessions 2048
//	wehey-map -server http://127.0.0.1:9400 infer -name gt
//	wehey-map -server http://127.0.0.1:9400 score -name gt -throttle 3 -starve 7 -sessions 2048 -check
//	wehey-map score -name gt -throttle 3 -starve 7 -sessions 2048 -journal campaign/journal.wj
//
// plant renders the campaign's session plan as sim-backend job specs and
// submits them in batches (each batch is one server-side journal group
// commit), backing off while the admission queue is full. watch streams
// the job feed through the seq-cursor pages and status batches until
// every planned session is terminal, then prints the differentiation
// map. infer is the one-shot form over whatever the server (or a journal
// file, no server needed) already holds. score grades the inferred map
// against the planted ground truth; with -check it exits non-zero unless
// the top-ranked ISP is a planted one at the required posterior — the CI
// smoke test's assertion.
//
// The map and score are JSON on stdout; progress counters go to stderr.
// infer and score must be given the same campaign flags as the plant:
// the identifiability pass and the ground truth are reconstructed from
// them, not stored server-side.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/nal-epfl/wehey/internal/clock"
	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/fleet"
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
	case "plant":
		plant(ctx, c, args[1:])
	case "watch":
		watch(ctx, c, args[1:])
	case "infer":
		infer(ctx, c, args[1:])
	case "score":
		score(ctx, c, args[1:])
	default:
		usage()
	}
}

// campaignFlags registers the shared campaign-spec flags on fs and
// returns a closure that builds the (filled) campaign after parsing.
// Zero values defer to the spec defaults (12 ISPs, 8 servers, ...).
func campaignFlags(fs *flag.FlagSet) func() fleet.Campaign {
	var (
		name     = fs.String("name", "fleet", "campaign name (the fleet attribution key on its jobs)")
		isps     = fs.Int("isps", 0, "candidate access ISPs (0 = default)")
		servers  = fs.Int("servers", 0, "replay servers (0 = default)")
		sessions = fs.Int("sessions", 0, "sessions to plan (0 = default)")
		throttle = fs.String("throttle", "", "comma-separated ISP indices with planted throttling")
		starve   = fs.String("starve", "", "comma-separated ISP indices excluded from the plan (path-starved)")
		app      = fs.String("app", "", "application trace the sessions replay (default per spec)")
		duration = fs.Duration("duration", 0, "per-session replay duration (0 = default)")
		seedPool = fs.Int("seed-pool", 0, "distinct seeds per placement; sessions share sims beyond it (0 = default)")
		seed     = fs.Int64("seed", 0, "campaign seed")
	)
	return func() fleet.Campaign {
		return fleet.NewCampaign(*name, experiments.FleetCampaignSpec{
			ISPs:          *isps,
			Servers:       *servers,
			ThrottledISPs: parseISPList("throttle", *throttle),
			StarvedISPs:   parseISPList("starve", *starve),
			Sessions:      *sessions,
			App:           *app,
			Duration:      *duration,
			SeedPool:      *seedPool,
			Seed:          *seed,
		})
	}
}

func plant(ctx context.Context, c *service.Client, args []string) {
	fs := flag.NewFlagSet("plant", flag.ExitOnError)
	campaign := campaignFlags(fs)
	batch := fs.Int("batch", 256, "specs per submit round-trip (one journal group commit each; at most the server's -queue-limit)")
	retry := fs.Duration("retry", 200*time.Millisecond, "backoff while the admission queue is full")
	dryRun := fs.Bool("dry-run", false, "print the job specs instead of submitting them")
	fs.Parse(args) // ExitOnError: Parse never returns an error
	if *batch < 1 {
		fatalIf(fmt.Errorf("-batch must be at least 1, got %d", *batch))
	}

	camp := campaign()
	specs := camp.JobSpecs()
	if *dryRun {
		printJSON(specs)
		return
	}

	first, last := "", ""
	for len(specs) > 0 {
		n := len(specs)
		if n > *batch {
			n = *batch
		}
		jobs, err := c.SubmitBatch(ctx, specs[:n])
		if err != nil {
			if !queueFull(err) {
				fatalIf(err)
			}
			fatalIf(sleep(ctx, *retry))
			continue
		}
		if first == "" {
			first = jobs[0].ID
		}
		last = jobs[len(jobs)-1].ID
		specs = specs[n:]
		fmt.Fprintf(os.Stderr, "wehey-map: submitted %d jobs (through %s)\n", n, last)
	}
	printJSON(map[string]any{
		"campaign":  camp.Name,
		"sessions":  camp.Spec.Sessions,
		"first_job": first,
		"last_job":  last,
	})
}

func watch(ctx context.Context, c *service.Client, args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	campaign := campaignFlags(fs)
	poll := fs.Duration("poll", 200*time.Millisecond, "idle re-poll interval")
	expect := fs.Int("expect", 0, "sessions to wait for (0 = the campaign plan size, <0 = drain once)")
	noIdent := fs.Bool("no-ident", false, "skip the identifiability gate (score every observed cell)")
	fs.Parse(args)

	camp := campaign()
	total := int64(*expect)
	if *expect == 0 {
		total = int64(len(camp.JobSpecs()))
	}
	f := &fleet.Follower{Client: c, Campaign: camp.Name, Poll: *poll}
	fatalIf(f.Follow(ctx, total))
	printMap(camp, f.Agg, *noIdent)
	printCounters(f.Stats())
}

func infer(ctx context.Context, c *service.Client, args []string) {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	campaign := campaignFlags(fs)
	journal := fs.String("journal", "", "infer from this journal file instead of a live server")
	noIdent := fs.Bool("no-ident", false, "skip the identifiability gate (score every observed cell)")
	fs.Parse(args)

	camp := campaign()
	agg, scanned, credited := loadAggregate(ctx, c, camp.Name, *journal)
	printMap(camp, agg, *noIdent)
	printCounters(map[string]int64{"jobs_scanned": scanned, "credited": credited})
}

func score(ctx context.Context, c *service.Client, args []string) {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	campaign := campaignFlags(fs)
	journal := fs.String("journal", "", "score from this journal file instead of a live server")
	check := fs.Bool("check", false, "exit non-zero unless the top ISP is planted at -min-posterior")
	minPosterior := fs.Float64("min-posterior", 0.9, "posterior the top ISP must reach under -check")
	fs.Parse(args)

	camp := campaign()
	agg, scanned, credited := loadAggregate(ctx, c, camp.Name, *journal)
	m := agg.Snapshot(camp.PathMatrix().Identify())
	s := camp.ScoreMap(m)
	printJSON(s)
	fmt.Fprintf(os.Stderr, "wehey-map: scanned %d jobs, credited %d; %s\n", scanned, credited, s)
	if *check && !(s.TopIsPlanted && s.TopPosterior >= *minPosterior) {
		fmt.Fprintf(os.Stderr, "wehey-map: check failed: top ISP %d (planted=%v) at posterior %.4f < %.4f\n",
			s.TopISP, s.TopIsPlanted, s.TopPosterior, *minPosterior)
		os.Exit(1)
	}
}

// loadAggregate folds a one-shot job dump — a journal file or the
// server's full listing — into a fresh aggregator.
func loadAggregate(ctx context.Context, c *service.Client, campaign, journal string) (agg *fleet.Aggregator, scanned, credited int64) {
	var jobs []service.Job
	var err error
	if journal != "" {
		jobs, err = service.LoadJournalJobs(journal)
	} else {
		jobs, err = c.Jobs(ctx)
	}
	fatalIf(err)
	agg = fleet.NewAggregator()
	return agg, int64(len(jobs)), fleet.FromJobs(agg, campaign, jobs)
}

// printMap renders the aggregator as the campaign's differentiation map
// on stdout, gated by the identifiability pass unless noIdent.
func printMap(camp fleet.Campaign, agg *fleet.Aggregator, noIdent bool) {
	m := agg.Snapshot(nil)
	if !noIdent {
		m = agg.Snapshot(camp.PathMatrix().Identify())
	}
	out, err := m.MarshalIndent()
	fatalIf(err)
	fmt.Println(string(out))
}

// printCounters writes the control-plane counters to stderr (stdout is
// reserved for the map/score JSON).
func printCounters(v any) {
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	enc.Encode(v) // stderr write failures have no recovery path here
}

// parseISPList parses a comma-separated list of non-negative ISP indices.
func parseISPList(name, s string) []int {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			fatalIf(fmt.Errorf("-%s: expected comma-separated non-negative ISP indices, got %q", name, s))
		}
		out = append(out, v)
	}
	return out
}

// queueFull recognizes the admission-control rejection (HTTP 429) in a
// client error, the one submit failure that is worth retrying.
func queueFull(err error) bool {
	return err != nil && strings.Contains(err.Error(), "429")
}

// sleep waits d on the injected clock (interruptible by ctx).
func sleep(ctx context.Context, d time.Duration) error {
	t := clock.System.NewTimer(d)
	select {
	case <-t.C():
		return nil
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v) // stdout write failures have no recovery path here
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wehey-map [-server URL] {plant|watch|infer|score} [flags]")
	os.Exit(2)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "wehey-map: %v\n", err)
		os.Exit(1)
	}
}
