// Cohort selection and straggler semantics.
//
// The fleet subsystem (internal/fleet) decides WHO runs a round and WHEN the
// server stops waiting; this file is the engine-side glue: Cohort resolves
// the round's participant set, ForEachOf fans a Rounder's work over it, and
// resolveStragglers applies the deadline to the per-participant times
// FinishRound's synchronous mode receives. With an inactive fleet spec all of it degrades to the
// engine's historical behavior — full participation, no deadline — and the
// results are bit-identical to runs predating the subsystem.
package fed

import "repro/internal/simtime"

// Cohort returns the sorted participant indices executing round r: the full
// fleet when the configuration has no active fleet spec, otherwise the
// selection policy applied to the round's available participants. It is
// deterministic in (Cfg.Fleet.Seed, r) and idempotent — calling it twice for
// the same round returns the same cohort and consumes no engine randomness.
func (e *Env) Cohort(r int) []int {
	n := e.Cfg.Participants
	if !e.Cfg.Fleet.Active() {
		return identityIndices(n)
	}
	return e.Cfg.Fleet.Cohort(r, n)
}

// identityIndices returns [0, n) — the full-fleet participant list.
func identityIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Deadline returns the straggler deadline in simulated seconds (zero = no
// deadline) and whether participants missing it are dropped from
// aggregation (false = the server waits for everyone).
func (e *Env) Deadline() (sec float64, drop bool) {
	return e.Cfg.Fleet.Deadline, e.Cfg.Fleet.Drop
}

// stragglerOutcome is the deadline resolution of one round.
type stragglerOutcome struct {
	// keep flags, per cohort slot, whether that participant's update is
	// aggregated. All true without a deadline or under the wait policy.
	keep []bool
	// kept is the number of true entries in keep.
	kept int
}

// dropped reports how many cohort slots missed the deadline.
func (o stragglerOutcome) dropped() int { return len(o.keep) - o.kept }

// resolveStragglers applies the configured deadline to the per-cohort-slot
// end-to-end round seconds of a synchronous round. Semantics:
//
//   - No deadline, or a deadline with the wait policy: every participant is
//     kept and the deadline changes nothing (it is observational).
//   - Drop policy: participants whose total exceeds the deadline are
//     dropped. The server never proceeds empty-handed — if everyone would
//     miss the deadline it waits for the single fastest participant.
//
// The reduction is deterministic: keep depends only on the measured totals,
// never on worker scheduling.
func (e *Env) resolveStragglers(totals []float64) stragglerOutcome {
	out := stragglerOutcome{keep: make([]bool, len(totals))}
	deadline, drop := e.Deadline()
	if deadline <= 0 || !drop {
		for i := range out.keep {
			out.keep[i] = true
		}
		out.kept = len(totals)
		return out
	}
	fastest := -1
	for i, t := range totals {
		if fastest < 0 || t < totals[fastest] {
			fastest = i
		}
		if t <= deadline {
			out.keep[i] = true
			out.kept++
		}
	}
	if out.kept == 0 && fastest >= 0 {
		// A synchronous round cannot aggregate nothing: wait (past the
		// deadline) for the single fastest update.
		out.keep[fastest] = true
		out.kept = 1
	}
	return out
}

// addStragglerWait attributes the server's idle tail at the deadline to the
// straggler phase of a round's phase map. participantSec is the kept
// cohort's barriered participant window — the sum of per-phase maxima over
// kept participants, excluding server-side aggregation time. When the drop
// policy cut at least one participant, the server proceeded at the deadline,
// so the participant window lasts the full deadline and the shortfall
// (deadline - participantSec) is idle time. The window can also exceed the
// deadline — per-participant totals decide who is dropped, and the maxima of
// different phases may come from different kept participants — in which case
// no idle time is added.
func (e *Env) addStragglerWait(phases map[simtime.Phase]float64, outcome stragglerOutcome, participantSec float64) {
	deadline, drop := e.Deadline()
	if deadline <= 0 || !drop || outcome.dropped() == 0 {
		return
	}
	if wait := deadline - participantSec; wait > 0 {
		// Accumulate: a participant may already report straggler time in
		// its own phases; assignment would silently clobber it.
		phases[simtime.PhaseStraggler] += wait
	}
}
