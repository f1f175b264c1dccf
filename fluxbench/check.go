package main

import (
	"context"
	"fmt"
	"math"

	flux "repro"
)

// outcome is one experiment: its events, round 0 included, or the error
// Run returned.
type outcome struct {
	events []flux.RoundEvent
	err    error
}

func runExperiment(ctx context.Context, e *flux.Experiment) outcome {
	res, err := e.Run(ctx)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{events: res.Events}
}

// checkEvents returns every output check one experiment's events fail:
// scores finite and in [0,1], one event per round, and the participation
// census. Under event-driven aggregation updates may complete in a later
// round than they were selected in, so the census there is cumulative:
// every selected update has been aggregated or is still pending.
func checkEvents(events []flux.RoundEvent, rounds int, async bool) []string {
	var bad []string
	if len(events) != rounds+1 {
		bad = append(bad, fmt.Sprintf("%d events for a %d-round budget", len(events), rounds))
	}
	var selected, completed int
	for r, ev := range events {
		if ev.Round != r {
			bad = append(bad, fmt.Sprintf("event %d reports round %d", r, ev.Round))
		}
		if math.IsNaN(ev.Score) || ev.Score < 0 || ev.Score > 1 {
			bad = append(bad, fmt.Sprintf("round %d: score %v outside [0,1]", r, ev.Score))
		}
		if r == 0 {
			continue
		}
		if ev.Stale > ev.Completed {
			bad = append(bad, fmt.Sprintf("round %d: stale %d > completed %d", r, ev.Stale, ev.Completed))
		}
		if async {
			selected += ev.Selected
			completed += ev.Completed
			if selected != completed+ev.Pending {
				bad = append(bad, fmt.Sprintf("round %d: %d selected so far != %d completed + %d pending", r, selected, completed, ev.Pending))
			}
		} else if ev.Completed+ev.Dropped != ev.Selected {
			bad = append(bad, fmt.Sprintf("round %d: completed %d + dropped %d != selected %d", r, ev.Completed, ev.Dropped, ev.Selected))
		}
	}
	return bad
}

// sameCurve reports whether two runs produced bit-identical score curves.
func sameCurve(a, b []flux.RoundEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// firstAtTarget returns the index of the first event scoring at least
// target, or -1.
func firstAtTarget(events []flux.RoundEvent, target float64) int {
	for i, ev := range events {
		if ev.Score >= target {
			return i
		}
	}
	return -1
}
