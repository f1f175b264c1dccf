package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	flux "repro"
)

// softLimit is when a run stops starting experiments, so it always exits
// well inside its time limit.
const softLimit = 120 * time.Second

// checkRounds is the prefix of the first experiment a timed run reproduces
// to check determinism.
const checkRounds = 10

// timedRun is the end-to-end measurement (--trace 0), with tracing off. It
// times one cold set-up (dataset synthesis, base-model pretraining,
// partition), then runs experiment j on sub-seed j, each over its full
// round budget, until it has measured for seconds, at least two experiments
// and at least minTimedRounds rounds. Finally it re-runs the first
// sub-seed for checkRounds rounds, which must reproduce the first curve bit
// for bit.
func timedRun(ctx context.Context, w workload, seed int, seconds time.Duration, start time.Time, rep *report) error {
	target, err := w.target()
	if err != nil {
		return err
	}
	t := now()
	e, err := w.experiment(subSeed(seed, 0), nil, nil)
	if err != nil {
		return err
	}
	if _, err := e.Describe(); err != nil {
		return err
	}
	setup := since(t)
	async := e.Config().Aggregation.Active()

	var (
		runs      []outcome
		roundSecs []float64
		traffic   float64
		rounds    int
		missed    int // rounds of experiments that never reached the target
	)
	measure := now()
	for {
		if len(runs) > 0 {
			if e, err = w.experiment(subSeed(seed, len(runs)), nil, nil); err != nil {
				return err
			}
		}
		o := runExperiment(ctx, e)
		runs = append(runs, o)
		rep.attempted += w.rounds
		switch {
		case o.err != nil:
			fmt.Printf("experiment %d failed: %v\n", len(runs), o.err)
			rep.failed += w.rounds
		case !recordChecks(rep, w.rounds, async, o, nil):
			rep.failed += w.rounds
		case firstAtTarget(o.events, target) < 0:
			missed += w.rounds
		}
		for r := 1; r < len(o.events); r++ {
			roundSecs = append(roundSecs, (o.events[r].Elapsed - o.events[r-1].Elapsed).Seconds())
			traffic += o.events[r].UplinkBytes + o.events[r].DownlinkBytes
		}
		rounds += max(len(o.events)-1, 0)
		enough := len(runs) >= 2 && rounds >= minTimedRounds && since(measure) >= seconds
		if enough || since(start) > softLimit || ctx.Err() != nil {
			break
		}
	}
	if rounds < minTimedRounds {
		rep.problem("measured %d rounds, fewer than %d", rounds, minTimedRounds)
	}
	fmt.Printf("workload %s seed %d: %d experiments, %d timed rounds, %.1fs measured\n",
		w.name, seed, len(runs), rounds, since(measure).Seconds())

	rep.attempted += checkRounds
	if err := checkPrefix(ctx, w, seed, runs[0].events); err != nil {
		rep.problem("%v", err)
		rep.failed += checkRounds
	}

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.add("setup_s", "s", setup.Seconds(), 1)
	rep.add("round_s_p50", "s", median(roundSecs), len(roundSecs))
	rep.add("round_s_p90", "s", quantile(roundSecs, 0.9), len(roundSecs))
	rep.add("comm_mb_per_round", "MB", ratio(traffic, float64(rounds))/1e6, rounds)
	rep.add("peak_rss_mb", "MB", rss, 1)
	addConvergence(rep, runs[0].events, target)
	rep.add("round_fail_frac", "ratio", ratio(float64(rep.failed+missed), float64(rep.attempted)), len(runs))
	return nil
}

// checkPrefix re-runs the first experiment of a timed run, stopping it
// after checkRounds rounds, and checks that it reproduces the first
// checkRounds+1 scores bit for bit.
func checkPrefix(ctx context.Context, w workload, seed int, first []flux.RoundEvent) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var events []flux.RoundEvent
	e, err := w.experiment(subSeed(seed, 0), nil, func(ev flux.RoundEvent) {
		events = append(events, ev)
		if ev.Round == checkRounds {
			cancel()
		}
	})
	if err != nil {
		return err
	}
	if _, err := e.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("determinism re-run: %w", err)
	}
	if len(first) < checkRounds+1 || !sameCurve(events, first[:checkRounds+1]) {
		return fmt.Errorf("re-running seed %s does not reproduce its first %d rounds", subSeed(seed, 0), checkRounds)
	}
	return nil
}

// recordChecks runs the output checks on one experiment and, when ref is
// non-nil, requires its score curve to equal ref's bit for bit. It reports
// whether all passed.
func recordChecks(rep *report, rounds int, async bool, o outcome, ref []flux.RoundEvent) bool {
	bad := checkEvents(o.events, rounds, async)
	if ref != nil && !sameCurve(o.events, ref) {
		bad = append(bad, "score curve differs from the untraced run with the same seed")
	}
	for _, b := range bad {
		rep.problem("%s", b)
	}
	return len(bad) == 0
}

// addConvergence records the time-to-accuracy metrics of one curve: the
// round that first reaches the dataset target, the simulated hours and wall
// seconds from Run's start to get there, and the final score. A curve that
// never reaches the target reports zeros with no samples.
func addConvergence(rep *report, events []flux.RoundEvent, target float64) {
	var rounds, simH, wall float64
	n := 0
	if hit := firstAtTarget(events, target); hit >= 0 {
		ev := events[hit]
		rounds, simH, wall, n = float64(ev.Round), ev.SimHours, ev.Elapsed.Seconds(), 1
	}
	var final float64
	if len(events) > 0 {
		final = events[len(events)-1].Score
	}
	rep.add("rounds_to_target", "count", rounds, n)
	rep.add("sim_h_to_target", "h", simH, n)
	rep.add("wall_to_target_s", "s", wall, n)
	rep.add("final_score", "score", final, 1)
}
