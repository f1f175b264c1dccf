// The server's round reduction: synchronous, buffered-asynchronous and
// semi-synchronous aggregation.
//
// Every Rounder ends the same way: after its participant fan-out joins it
// hands one SlotResult per cohort slot to Env.FinishRound and returns the
// phase map it gets back. FinishRound owns everything server-side —
// straggler resolution, aggregation order, traffic and census accounting,
// per-participant observations and the round's simulated time — so the
// methods differ only in what a participant does. AggSpec picks the
// discipline:
//
//   - Sync (the default): the barrier round. The server waits for the whole
//     cohort, or until the fleet deadline under the drop policy, and
//     aggregates the kept updates once.
//   - Buffered-async ("async", FedBuff-style): the server aggregates as soon
//     as K updates sit in its buffer, tagging the global model with a version
//     that increments per flush. Updates born against an older version are
//     staleness-discounted (weight × 1/(1+staleness)^α). Nothing is ever
//     dropped: arrivals that do not complete a buffer carry over into the
//     next round's buffer.
//   - Semi-sync ("semisync"): a fixed round clock (the fleet deadline). The
//     server flushes exactly once per round — carried-over updates plus the
//     on-time arrivals — and late arrivals carry into the next round's buffer
//     instead of being dropped.
//
// Determinism: a slot's end-to-end time is a sorted-key fold of its phases;
// arrivals are ordered by (that time, slot) and the synchronous aggregation
// walks slot order, all deterministic in the seed. Every other float fold
// walks slot order, arrival order or sorted phase keys. Carried updates are
// deep-copied out of the worker scratch arena (whose buffers are invalidated
// by the next round's pool run).
package fed

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// Aggregation modes accepted by AggSpec.Mode.
const (
	// ModeSync is the synchronous barrier round — the default, and exactly
	// the engine's historical behavior (an empty Mode means the same).
	ModeSync = "sync"
	// ModeAsync is FedBuff-style buffered-asynchronous aggregation.
	ModeAsync = "async"
	// ModeSemiSync is fixed-clock aggregation with carry-over.
	ModeSemiSync = "semisync"
)

// AggSpec selects the server's aggregation discipline. The zero value (and
// an explicit "sync" mode) is the synchronous barrier round, bit-identical
// to runs predating the event-driven core.
type AggSpec struct {
	// Mode is "sync" (or empty), "async", or "semisync".
	Mode string `json:"mode,omitempty"`

	// BufferK is the async buffer size: the server flushes as soon as K
	// updates are buffered. Zero resolves to half the round's cohort
	// (minimum 1). Ignored by semisync, which flushes on the round clock.
	BufferK int `json:"buffer_k,omitempty"`

	// StalenessAlpha is the staleness discount exponent: an update born
	// against global version v and aggregated at version v+s contributes
	// with weight w/(1+s)^α. Zero applies no discount.
	StalenessAlpha float64 `json:"staleness_alpha,omitempty"`
}

// Active reports whether the spec selects an event-driven mode (async or
// semisync) instead of the synchronous barrier round.
func (a AggSpec) Active() bool {
	return a.Mode == ModeAsync || a.Mode == ModeSemiSync
}

// Validate reports the first invalid setting, or nil.
func (a AggSpec) Validate() error {
	switch a.Mode {
	case "", ModeSync, ModeAsync, ModeSemiSync:
	default:
		return fmt.Errorf("fed: aggregation mode %q must be one of %q, %q, %q (or empty)",
			a.Mode, ModeSync, ModeAsync, ModeSemiSync)
	}
	if a.BufferK < 0 {
		return fmt.Errorf("fed: aggregation buffer_k %d must be non-negative (0 = half the cohort)", a.BufferK)
	}
	if a.StalenessAlpha < 0 || math.IsNaN(a.StalenessAlpha) || math.IsInf(a.StalenessAlpha, 0) {
		return fmt.Errorf("fed: aggregation staleness_alpha %v must be a non-negative number", a.StalenessAlpha)
	}
	return nil
}

// bufferFor resolves the flush threshold for a cohort of n: BufferK when set,
// otherwise half the cohort, never below one.
func (a AggSpec) bufferFor(n int) int {
	k := a.BufferK
	if k <= 0 {
		k = n / 2
	}
	if k < 1 {
		k = 1
	}
	return k
}

// SlotResult is one cohort slot's contribution to a round: the
// participant's update, its modeled wire traffic, and its per-phase simulated
// seconds. A Rounder builds one per slot and hands the cohort to
// Env.FinishRound. The phase map must cover the participant's full
// end-to-end round time — its sorted-key sum is what the straggler deadline
// is checked against and what orders the event-driven server's arrivals.
type SlotResult struct {
	Update Update
	// Bytes is the uplink payload of Update (what the participant uploads).
	Bytes float64
	// DownBytes is the modeled broadcast payload this participant received
	// at the start of the round.
	DownBytes float64
	// Phases is this participant's simulated seconds by phase.
	Phases map[simtime.Phase]float64
}

// pendingUpdate is a buffered update awaiting aggregation, carried across
// rounds. Its parameters are deep copies — worker scratch arenas are rewound
// every round, so a carried update must own its storage.
type pendingUpdate struct {
	update Update
	birth  int // global model version the participant trained against
	bytes  float64
}

// cloneUpdate deep-copies an update out of scratch-arena storage.
func cloneUpdate(u Update) Update {
	c := Update{Participant: u.Participant, Weight: u.Weight, Experts: make(map[ExpertKey][]float64, len(u.Experts))}
	//fluxvet:unordered map-to-map deep copy; per-key writes, element order irrelevant
	for k, p := range u.Experts {
		c.Experts[k] = append([]float64(nil), p...)
	}
	return c
}

// staleScale is the staleness discount 1/(1+s)^α.
func staleScale(staleness int, alpha float64) float64 {
	if staleness <= 0 || alpha == 0 {
		return 1
	}
	return 1 / math.Pow(1+float64(staleness), alpha)
}

// sortedPhaseSum folds a phase map into seconds in sorted-key order, so the
// float total is bit-reproducible run to run.
func sortedPhaseSum(phases map[simtime.Phase]float64) float64 {
	keys := make([]string, 0, len(phases))
	for p := range phases {
		keys = append(keys, string(p))
	}
	sort.Strings(keys)
	var sec float64
	for _, k := range keys {
		sec += phases[simtime.Phase(k)]
	}
	return sec
}

// serverRound accumulates the effects of one event-driven round's flushes.
type serverRound struct {
	version   int     // global model version, bumped once per flush
	completed int     // updates aggregated this round (carried + fresh)
	stale     int     // of those, aggregated with staleness > 0
	experts   int     // expert aggregations applied, summed over flushes
	serverSec float64 // server-side aggregation seconds, summed over flushes

	// Observability collection, active only when a recorder is attached
	// (track). birth is the global version at round entry — every fresh
	// arrival's birth — so flush can tell fresh updates from carry-overs.
	// With track off nothing below is appended to, keeping disabled-path
	// allocations at zero.
	track   bool
	birth   int
	flushes []obs.Flush
	agg     []aggEntry
}

// aggEntry records one update's aggregation for observability: which
// participant it came from, the staleness it was discounted at, and whether
// it was fresh this round (vs carried from an earlier one).
type aggEntry struct {
	participant int
	staleness   int
	fresh       bool
}

// flush aggregates the buffered updates in buffer order, staleness-discounted
// against the current version, then bumps the version. It is the single
// model-mutation point of the event-driven core.
//
// Aggregate replaces an expert's parameters with the weighted mean of the
// updates handed to it — correct for a synchronous barrier, where one call
// sees the whole cohort, but a partial buffer must not clobber what earlier
// flushes contributed. So the current global parameters join the mean as an
// anchor pseudo-update weighted by the unrepresented cohort fraction: the
// buffer moves the model with server rate η = |buffer|/cohort, and a buffer
// covering the full cohort degenerates to the synchronous replacement.
// at is the flush trigger's offset from round start in simulated seconds,
// recorded (with the flush's composition) for the observability sinks when a
// recorder is attached.
func (e *Env) flush(buf []pendingUpdate, cohortN int, sr *serverRound, alpha float64, at float64) {
	scaled := make([]Update, 0, len(buf)+1)
	staleBefore := sr.stale
	var bytes, total float64
	for _, p := range buf {
		staleness := sr.version - p.birth
		if staleness > 0 {
			sr.stale++
		}
		if sr.track {
			sr.agg = append(sr.agg, aggEntry{participant: p.update.Participant, staleness: staleness, fresh: p.birth == sr.birth})
		}
		u := p.update
		w := u.Weight
		if w <= 0 {
			w = 1 // Aggregate's convention for unweighted updates
		}
		u.Weight = w * staleScale(staleness, alpha)
		total += u.Weight
		scaled = append(scaled, u)
		bytes += p.bytes
	}
	if len(buf) < cohortN && e.Global != nil {
		anchor := Update{
			Weight:  total * float64(cohortN-len(buf)) / float64(len(buf)),
			Experts: make(map[ExpertKey][]float64),
		}
		for _, u := range scaled {
			//fluxvet:unordered union of buffer expert keys into the anchor map; per-key writes, order irrelevant
			for key := range u.Experts {
				if _, ok := anchor.Experts[key]; !ok {
					anchor.Experts[key] = e.Global.ExpertAt(key.Layer, key.Expert).FlattenTo(nil)
				}
			}
		}
		if len(anchor.Experts) > 0 {
			// Prepend so each expert's float fold starts from the anchor —
			// deterministic in buffer order like everything else here.
			scaled = append([]Update{anchor}, scaled...)
		}
	}
	sr.experts += Aggregate(e.Global, scaled)
	sr.completed += len(buf)
	sr.serverSec += bytes / e.Cfg.ServerBw
	sr.version++
	if sr.track {
		carried := 0
		for _, p := range buf {
			if p.birth != sr.birth {
				carried++
			}
		}
		sr.flushes = append(sr.flushes, obs.Flush{
			At: at, Dur: bytes / e.Cfg.ServerBw, Size: len(buf),
			Carried: carried, Stale: sr.stale - staleBefore, Version: sr.version,
		})
	}
}

// FinishRound is the server's round reduction, shared by every Rounder: after
// the participant fan-out joins, a Rounder hands it one SlotResult per cohort
// slot and returns the phase map it gives back. FinishRound owns
// aggregation, the round's simulated time and its observability. Behavior by
// mode:
//
//   - sync (the default): the fleet deadline resolves stragglers on each
//     slot's end-to-end seconds — under the drop policy slots past it are
//     cut, but if every slot is late the fastest is kept. The kept updates
//     aggregate once, in slot order. The round lasts the kept slots' window
//     (per-phase maxima; a phase any kept slot reports stays, even at zero)
//     plus server aggregation seconds under the communication phase. When
//     the drop policy cut someone, the server proceeded at the deadline, so
//     the shortfall between the deadline and the window is idle time under
//     the straggler-wait phase.
//   - async: arrivals are ordered by simulated completion time and buffered;
//     every K buffered updates are flushed (staleness-discounted FedAvg, then
//     version++). Leftovers carry into the next round's buffer. The round's
//     time is the end-to-end time of the arrival that triggered the last
//     flush, plus server aggregation seconds; if no flush would trigger
//     naturally the buffer is force-flushed at the last arrival, so every
//     round advances the model.
//   - semisync: one flush per round at the fixed round clock
//     (Cfg.Fleet.Deadline): carried updates plus arrivals inside the clock.
//     Late arrivals carry over instead of being dropped. The round lasts the
//     full clock (shortfall is attributed to the straggler-wait phase); when
//     nothing is flushable the server waits past the clock for the single
//     fastest arrival.
//
// It also reports the round's observability: uplink traffic of every update
// the server received (all slots but the dropped ones), downlink traffic of
// the whole cohort (the broadcast precedes the deadline), the census
// (Selected = cohort, Completed = updates aggregated, Dropped = slots the
// deadline cut — always 0 in the event-driven modes), one participant record
// per slot, and, in the event-driven modes, the model version, stale-update
// count and carry-over buffer size.
func (e *Env) FinishRound(cohort []int, results []SlotResult) map[simtime.Phase]float64 {
	rec := e.Obs() // fetched before taking st.mu (Obs locks it too)
	st := e.st()
	st.mu.Lock()
	sr := serverRound{version: st.version, birth: st.version, track: rec != nil}
	carried := st.pending
	st.pending = nil
	st.mu.Unlock()

	// Each slot's end-to-end seconds, from sorted-key folds so they are
	// deterministic in the seed at every worker count. Only the synchronous
	// drop policy cuts anyone: Validate rejects drop in the event-driven
	// modes, which keep every slot here.
	totals := make([]float64, len(results))
	for slot, p := range results {
		totals[slot] = sortedPhaseSum(p.Phases)
	}
	outcome := e.resolveStragglers(totals)

	// Traffic is observed where it happens: every cohort member receives the
	// broadcast, and every kept member's upload reaches the server, whether
	// or not the server consumes it before the round closes. Folded in slot
	// order.
	var upBytes, downBytes float64
	for slot, p := range results {
		if outcome.keep[slot] {
			upBytes += p.Bytes
		}
		downBytes += p.DownBytes
	}

	var phases map[simtime.Phase]float64
	var leftovers []pendingUpdate
	switch e.Cfg.Agg.Mode {
	case ModeAsync:
		phases, leftovers = e.finishAsync(arrivalOrder(totals), totals, results, carried, &sr)
	case ModeSemiSync:
		phases, leftovers = e.finishSemiSync(arrivalOrder(totals), totals, results, carried, &sr)
	default:
		phases = e.finishSync(results, outcome, upBytes, &sr)
	}

	if rec != nil {
		// Per-participant observations in slot order (the determinism
		// contract's reduction order). Staleness is reported for updates
		// aggregated this round; Pending marks fresh arrivals still buffered
		// at round end (they carry into the next round's first flush).
		freshStale := make(map[int]int, len(results))
		for _, a := range sr.agg {
			if a.fresh {
				freshStale[a.participant] = a.staleness
			}
		}
		pendingSet := make(map[int]bool, len(leftovers))
		for _, p := range leftovers {
			if p.birth == sr.birth {
				pendingSet[p.update.Participant] = true
			}
		}
		for slot, p := range results {
			id := cohort[slot]
			rec.Participant(obs.Participant{
				Index: id, Device: e.Devices[id].Name,
				Phases:      phaseStrings(p.Phases),
				UplinkBytes: p.Bytes, DownlinkBytes: p.DownBytes,
				Staleness: freshStale[id], Dropped: !outcome.keep[slot], Pending: pendingSet[id],
			})
		}
		for _, f := range sr.flushes {
			rec.Flush(f)
		}
	}

	e.observeCohort(len(cohort), sr.completed, outcome.dropped())
	st.mu.Lock()
	st.version = sr.version
	st.pending = leftovers
	st.obs.UplinkBytes += upBytes
	st.obs.DownlinkBytes += downBytes
	st.obs.ExpertsTouched = sr.experts
	st.obs.ModelVersion = sr.version
	st.obs.Stale = sr.stale
	st.obs.Pending = len(leftovers)
	st.mu.Unlock()
	return phases
}

// arrivalOrder returns the slots ordered by simulated completion time, ties
// by slot: the event-driven server's event queue.
func arrivalOrder(totals []float64) []int {
	order := make([]int, len(totals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if totals[order[a]] != totals[order[b]] {
			return totals[order[a]] < totals[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// finishSync is the barrier round: the kept updates aggregate once, in slot
// order, and the round lasts the kept slots' window of per-phase maxima,
// padded to the deadline when the drop policy cut someone, plus the server's
// aggregation seconds for the uplink it received.
func (e *Env) finishSync(results []SlotResult, outcome stragglerOutcome, upBytes float64, sr *serverRound) map[simtime.Phase]float64 {
	updates := make([]Update, 0, outcome.kept)
	window := make(map[simtime.Phase]float64)
	for slot, p := range results {
		if !outcome.keep[slot] {
			continue
		}
		updates = append(updates, p.Update)
		//fluxvet:unordered per-phase max fold; max is order-independent
		for ph, v := range p.Phases {
			if cur, ok := window[ph]; !ok || v > cur {
				window[ph] = v
			}
		}
	}
	sr.experts = Aggregate(e.Global, updates)
	sr.completed = outcome.kept
	e.addStragglerWait(window, outcome, sortedPhaseSum(window))
	window[simtime.PhaseComm] += upBytes / e.Cfg.ServerBw
	return window
}

// finishAsync walks the arrival order, buffering updates and flushing every
// K. Returns the round's phase map and the deep-copied leftovers.
func (e *Env) finishAsync(order []int, totals []float64, results []SlotResult, carried []pendingUpdate, sr *serverRound) (map[simtime.Phase]float64, []pendingUpdate) {
	k := e.Cfg.Agg.bufferFor(len(results))
	alpha := e.Cfg.Agg.StalenessAlpha
	// Every arrival trained against the model broadcast at round entry; a
	// flush mid-round makes the still-buffered and later arrivals stale.
	birth := sr.version
	buf := append([]pendingUpdate(nil), carried...)
	trigger := -1
	for _, slot := range order {
		buf = append(buf, pendingUpdate{update: results[slot].Update, birth: birth, bytes: results[slot].Bytes})
		if len(buf) >= k {
			e.flush(buf, len(results), sr, alpha, totals[slot])
			buf = buf[:0]
			trigger = slot
		}
	}
	if trigger < 0 {
		// No buffer filled this round; the server still advances the model
		// once so every round makes progress (and observers always see an
		// aggregation). The last arrival triggers it.
		trigger = order[len(order)-1]
		e.flush(buf, len(results), sr, alpha, totals[trigger])
		buf = buf[:0]
	}
	leftovers := make([]pendingUpdate, 0, len(buf))
	for _, p := range buf {
		// Deep copy: fresh arrivals reference worker scratch arenas, which
		// the next round's pool run rewinds. (Carried entries are never
		// leftovers — they sit at the front of the buffer, so any flush
		// consumes them first.)
		leftovers = append(leftovers, pendingUpdate{update: cloneUpdate(p.update), birth: p.birth, bytes: p.bytes})
	}

	// The round's simulated time: the end-to-end phases of the arrival that
	// triggered the last flush, plus the server's aggregation seconds. Later
	// arrivals overlap the next round — exactly the idle tail async removes.
	phases := make(map[simtime.Phase]float64, len(results[trigger].Phases)+1)
	//fluxvet:unordered map-to-map copy; per-key writes, element order irrelevant
	for p, v := range results[trigger].Phases {
		phases[p] = v
	}
	phases[simtime.PhaseComm] += sr.serverSec
	return phases, leftovers
}

// finishSemiSync flushes once at the fixed round clock: carried updates plus
// on-time arrivals aggregate; late arrivals carry over. Returns the round's
// phase map and the deep-copied leftovers.
func (e *Env) finishSemiSync(order []int, totals []float64, results []SlotResult, carried []pendingUpdate, sr *serverRound) (map[simtime.Phase]float64, []pendingUpdate) {
	clock := e.Cfg.Fleet.Deadline
	alpha := e.Cfg.Agg.StalenessAlpha
	birth := sr.version
	buf := append([]pendingUpdate(nil), carried...)
	var onTime, late []int
	for _, slot := range order {
		if totals[slot] <= clock {
			onTime = append(onTime, slot)
		} else {
			late = append(late, slot)
		}
	}
	for _, slot := range onTime {
		buf = append(buf, pendingUpdate{update: results[slot].Update, birth: birth, bytes: results[slot].Bytes})
	}

	phases := make(map[simtime.Phase]float64)
	flushAt := clock
	if len(buf) == 0 {
		// Nothing flushable at the clock: the server waits past it for the
		// single fastest arrival (a round cannot aggregate nothing). The
		// round lasts that participant's full time; the rest carry over.
		first := late[0]
		buf = append(buf, pendingUpdate{update: results[first].Update, birth: birth, bytes: results[first].Bytes})
		late = late[1:]
		flushAt = totals[first]
		//fluxvet:unordered map-to-map copy; per-key writes, element order irrelevant
		for p, v := range results[first].Phases {
			phases[p] = v
		}
	} else {
		// The round lasts exactly the clock: the on-time participant window
		// (per-phase maxima, a max-fold so element order is irrelevant) plus
		// the shortfall as server idle time.
		for _, slot := range onTime {
			//fluxvet:unordered per-phase max fold; max is order-independent
			for p, v := range results[slot].Phases {
				if v > phases[p] {
					phases[p] = v
				}
			}
		}
		if wait := clock - sortedPhaseSum(phases); wait > 0 {
			phases[simtime.PhaseStraggler] += wait
		}
	}
	e.flush(buf, len(results), sr, alpha, flushAt)
	phases[simtime.PhaseComm] += sr.serverSec

	leftovers := make([]pendingUpdate, 0, len(late))
	for _, slot := range late {
		leftovers = append(leftovers, pendingUpdate{update: cloneUpdate(results[slot].Update), birth: birth, bytes: results[slot].Bytes})
	}
	return phases, leftovers
}
