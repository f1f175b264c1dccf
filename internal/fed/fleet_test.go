package fed

import (
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/simtime"
)

func fleetEnv(t *testing.T, spec fleet.Spec) *Env {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Participants = 6
	cfg.Fleet = spec
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return &Env{Cfg: cfg}
}

func TestCohortDefaultIsEveryone(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{})
	for _, r := range []int{0, 1, 17} {
		if got := env.Cohort(r); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
			t.Fatalf("round %d cohort %v, want the full fleet", r, got)
		}
	}
}

func TestCohortSelected(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{
		Selector: fleet.SelectorSpec{Policy: "uniform", K: 2},
		Seed:     "fed-test",
	})
	a, b := env.Cohort(0), env.Cohort(0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cohort not idempotent: %v vs %v", a, b)
	}
	if len(a) != 2 {
		t.Fatalf("cohort %v, want size 2", a)
	}
}

func TestResolveStragglersNoDeadline(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{})
	out := env.resolveStragglers([]float64{5, 100, 2})
	if out.kept != 3 || out.dropped() != 0 {
		t.Fatalf("no deadline must keep everyone: %+v", out)
	}
}

func TestResolveStragglersWaitPolicy(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: false})
	out := env.resolveStragglers([]float64{5, 100, 2})
	if out.kept != 3 || out.dropped() != 0 {
		t.Fatalf("wait policy must keep everyone: %+v", out)
	}
}

func TestResolveStragglersDrop(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: true})
	out := env.resolveStragglers([]float64{5, 100, 2, 11})
	if !reflect.DeepEqual(out.keep, []bool{true, false, true, false}) {
		t.Fatalf("keep mask %v", out.keep)
	}
	if out.kept != 2 || out.dropped() != 2 {
		t.Fatalf("kept %d, want 2", out.kept)
	}
}

func TestResolveStragglersAllMissKeepsFastest(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: true})
	out := env.resolveStragglers([]float64{50, 30, 40})
	if !reflect.DeepEqual(out.keep, []bool{false, true, false}) {
		t.Fatalf("keep mask %v, want only the fastest", out.keep)
	}
	if out.kept != 1 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestResolveStragglersAllWithinDeadline(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: true})
	out := env.resolveStragglers([]float64{5, 7})
	if out.kept != 2 || out.dropped() != 0 {
		t.Fatalf("nobody within the deadline may be dropped: %+v", out)
	}
}

// TestAddStragglerWait pins the deadline accounting: when the drop policy
// cut someone, the participant window lasts the full deadline, so the
// shortfall between the deadline and the kept cohort's barriered phase time
// becomes PhaseStraggler idle time — and nothing is added under the wait
// policy, with no drops, or when the window already exceeds the deadline.
func TestAddStragglerWait(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: true})
	outcome := env.resolveStragglers([]float64{5, 100}) // one dropped

	phases := map[simtime.Phase]float64{simtime.PhaseFineTuning: 6}
	env.addStragglerWait(phases, outcome, 6)
	if got := phases[simtime.PhaseStraggler]; got != 4 {
		t.Fatalf("idle %v, want deadline(10) - window(6) = 4", got)
	}

	// Regression: the window may already carry straggler time (a phase a
	// participant attributes there itself). addStragglerWait must
	// accumulate onto it, not clobber it.
	phases = map[simtime.Phase]float64{simtime.PhaseStraggler: 3, simtime.PhaseFineTuning: 6}
	env.addStragglerWait(phases, outcome, 6)
	if got := phases[simtime.PhaseStraggler]; got != 7 {
		t.Fatalf("idle %v, want pre-existing(3) + shortfall(4) = 7 (clobbered, not accumulated?)", got)
	}

	// Window past the deadline: drop decisions are per-participant, the
	// barriered window may still overshoot — no negative idle time.
	phases = map[simtime.Phase]float64{}
	env.addStragglerWait(phases, outcome, 12)
	if _, ok := phases[simtime.PhaseStraggler]; ok {
		t.Fatalf("window past deadline must add no idle time: %v", phases)
	}

	// Nobody dropped: the server proceeded when the last update arrived.
	phases = map[simtime.Phase]float64{}
	env.addStragglerWait(phases, env.resolveStragglers([]float64{5, 7}), 7)
	if _, ok := phases[simtime.PhaseStraggler]; ok {
		t.Fatalf("no drop must add no idle time: %v", phases)
	}

	// Wait policy: observational deadline, never idle time.
	waitEnv := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: false})
	phases = map[simtime.Phase]float64{}
	waitEnv.addStragglerWait(phases, waitEnv.resolveStragglers([]float64{5, 100}), 6)
	if _, ok := phases[simtime.PhaseStraggler]; ok {
		t.Fatalf("wait policy must add no idle time: %v", phases)
	}
}

func TestObserveCohort(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{})
	env.observeCohort(10, 8, 2)
	obs := env.TakeRoundObs()
	if obs.Selected != 10 || obs.Completed != 8 || obs.Dropped != 2 {
		t.Fatalf("census %+v", obs)
	}
	if obs := env.TakeRoundObs(); obs.Selected != 0 {
		t.Fatalf("census not reset: %+v", obs)
	}
}

func TestConfigValidateFleet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fleet = fleet.Spec{Selector: fleet.SelectorSpec{Policy: "nope"}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown selection policy accepted")
	}
	cfg.Fleet = fleet.Spec{Trace: &fleet.Trace{Rounds: [][]int{{cfg.Participants}}}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("trace referencing an out-of-range participant accepted")
	}
}

// TestForEachOfSubset checks the cohort-aware pool visits exactly the listed
// participants, passing correct slots, at both worker settings.
func TestForEachOfSubset(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Participants = 8
		cfg.Workers = workers
		env := &Env{Cfg: cfg}
		cohort := []int{1, 4, 6}
		got := make([]int, len(cohort))
		if err := ForEachOf(env, cohort, func(_ *Scratch, slot, participant int) {
			got[slot] = participant
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cohort) {
			t.Fatalf("workers=%d: visited %v, want %v", workers, got, cohort)
		}
	}
}
