// Command fluxbench is the repository benchmark. It drives the public flux
// SDK (New, Describe, Run) in a fresh process per run and prints, as its
// last line, one JSON result: the end-to-end metrics with tracing off
// (--trace 0), or the per-layer metrics of a traced run (--trace 1).
//
//	fluxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	fluxbench compare <old-output> <new-output>
//
// See README.md in this directory for the workloads, the metrics, and which
// end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// hardLimit cancels a run that is still going, so the process exits within
// its three-minute budget even if a round hangs.
const hardLimit = 165 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("fluxbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int("seed", DefaultSeed, "workload seed")
	seconds := fs.Int("seconds", 15, "seconds to measure (timed runs measure at least two experiments and 100 rounds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "fluxbench: bad arguments: workload %q (%v), trace %d, seconds %d\n", *name, err, *trace, *seconds)
		return 2
	}

	start := now()
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()

	stamp, err := json.Marshal(hostStamp())
	if err != nil {
		fmt.Fprintf(os.Stderr, "fluxbench: %v\n", err)
		return 1
	}
	fmt.Printf("host: %s\n", stamp)
	fmt.Printf("workload %s seed %d trace %d (held-out seed: %d)\n", w.name, *seed, *trace, HeldOutSeed)

	rep := &report{}
	gated := endToEnd
	if *trace == 1 {
		gated = perLayer
		err = tracedRun(ctx, w, *seed, rep)
	} else {
		err = timedRun(ctx, w, *seed, time.Duration(*seconds)*time.Second, start, rep)
	}
	if err == nil {
		err = rep.write(os.Stdout, gated)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fluxbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}
