// Package baselines implements the three comparison systems of §8.1:
//
//   - FMD: federated MoE fine-tuning with dynamic expert offloading — the
//     full model is trained, with inactive experts shuttled between host
//     memory and the GPU every step.
//   - FMQ: federated MoE fine-tuning with INT4 quantization — the whole
//     model fits, but weights round-trip through the quantization grid
//     after every update, so precision errors accumulate.
//   - FMES: federated MoE fine-tuning with expert selection (FedMoE-style) —
//     the most frequently activated experts are fine-tuned and the rest are
//     discarded (their computation skipped).
//
// All three share the fed engine and its server reduction (fed.Env.FinishRound)
// and differ only in what a participant does, so the comparison against Flux
// is apples-to-apples.
package baselines

import (
	"fmt"
	"sort"

	"repro/internal/fed"
	"repro/internal/flux/profile"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/simtime"
)

// FMD fine-tunes the full model with expert offloading.
type FMD struct{}

// Name implements fed.Rounder.
func (FMD) Name() string { return "fmd" }

// Round implements fed.Rounder.
func (FMD) Round(env *fed.Env, round int) map[simtime.Phase]float64 {
	cfg := env.Global.Cfg
	tuning := fed.IdentityTuning(cfg)
	total := env.TotalExperts()

	cohort := env.Cohort(round)
	slots := make([]fed.SlotResult, len(cohort))
	err := fed.ForEachOf(env, cohort, func(ws *fed.Scratch, slot, i int) {
		dev := env.Devices[i]
		env.MarkPhase(simtime.PhaseFineTuning)
		local := ws.LocalClone(env.Global)
		grads := ws.Grads(local)
		mws := ws.Workspace()
		batch := env.Batch(i, round) // hoisted: identical for every local iteration
		tokens, steps := 0, 0
		for it := 0; it < env.Cfg.LocalIters; it++ {
			for _, s := range batch {
				seq, mask := s.FullSequence()
				local.ForwardBackwardWS(mws, seq, mask, grads, nil, -1)
				tokens += len(seq)
				steps++
			}
			local.ApplySGD(grads, env.Cfg.LR/float64(len(batch)))
		}
		trainSec := dev.Seconds(simtime.TrainFlops(cfg, tokens, 1.0))
		// Every step shuttles the uncached fraction of experts in and out.
		loads := int(2 * (1 - dev.CapacityFrac) * float64(total))
		offloadSec := float64(steps) * dev.OffloadSeconds(cfg, loads)

		env.MarkPhase(simtime.PhaseComm)
		u := ws.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
		bytes := fed.UpdateBytes(u)
		down := simtime.ModelBytes(cfg)
		slots[slot] = fed.SlotResult{
			Update: u, Bytes: bytes, DownBytes: down,
			Phases: map[simtime.Phase]float64{
				simtime.PhaseFineTuning: trainSec + offloadSec,
				simtime.PhaseComm:       dev.UplinkSeconds(bytes) + dev.DownlinkSeconds(down),
			},
		}
	})
	if err != nil {
		return nil
	}
	return env.FinishRound(cohort, slots)
}

// FMQ fine-tunes an INT-quantized model.
type FMQ struct {
	// Bits is the training precision (the paper uses INT4).
	Bits quant.Bits
}

// NewFMQ returns the paper's INT4 configuration.
func NewFMQ() FMQ { return FMQ{Bits: quant.Bits4} }

// Name implements fed.Rounder.
func (q FMQ) Name() string { return "fmq" }

// Round implements fed.Rounder.
func (q FMQ) Round(env *fed.Env, round int) map[simtime.Phase]float64 {
	cfg := env.Global.Cfg
	tuning := fed.IdentityTuning(cfg)
	bits := q.Bits
	if !bits.Valid() {
		bits = quant.Bits4
	}

	cohort := env.Cohort(round)
	slots := make([]fed.SlotResult, len(cohort))
	err := fed.ForEachOf(env, cohort, func(ws *fed.Scratch, slot, i int) {
		dev := env.Devices[i]
		env.MarkPhase(simtime.PhaseFineTuning)
		// The local working copy lives on the quantization grid.
		local := ws.LocalClone(env.Global)
		moe.Quantize(local, bits)
		grads := ws.Grads(local)
		mws := ws.Workspace()
		batch := env.Batch(i, round)
		tokens := 0
		for it := 0; it < env.Cfg.LocalIters; it++ {
			for _, s := range batch {
				seq, mask := s.FullSequence()
				local.ForwardBackwardWS(mws, seq, mask, grads, nil, -1)
				tokens += len(seq)
			}
			local.ApplySGD(grads, env.Cfg.LR/float64(len(batch)))
			// Storage is quantized: every update is immediately re-rounded,
			// which is where FMQ's accumulated precision error comes from.
			requantizeExperts(local, bits)
		}
		// Quantized kernels run ~32/bits faster.
		trainSec := dev.Seconds(simtime.TrainFlops(cfg, tokens, 1.0)) * float64(bits) / 32

		env.MarkPhase(simtime.PhaseComm)
		u := ws.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
		bytes := fed.UpdateBytes(u) * float64(bits) / 32
		down := simtime.ModelBytes(cfg) * float64(bits) / 32
		slots[slot] = fed.SlotResult{
			Update: u, Bytes: bytes, DownBytes: down,
			Phases: map[simtime.Phase]float64{
				simtime.PhaseFineTuning: trainSec + dev.QuantizeSeconds(cfg),
				simtime.PhaseComm:       dev.UplinkSeconds(bytes) + dev.DownlinkSeconds(down),
			},
		}
	})
	if err != nil {
		return nil
	}
	return env.FinishRound(cohort, slots)
}

func requantizeExperts(m *moe.Model, bits quant.Bits) {
	for _, layer := range m.Layers {
		for _, e := range layer.Experts {
			e.W1.CopyFrom(quant.RoundTrip(e.W1, bits))
			e.W2.CopyFrom(quant.RoundTrip(e.W2, bits))
		}
	}
}

// FMES selects the most frequently activated experts for tuning and
// discards the rest, as in FedMoE [50].
type FMES struct {
	// ProfileBits is the precision used to measure activation frequency.
	ProfileBits quant.Bits
}

// NewFMES returns the default configuration.
func NewFMES() FMES { return FMES{ProfileBits: quant.Bits4} }

// Name implements fed.Rounder.
func (FMES) Name() string { return "fmes" }

// Round implements fed.Rounder.
func (s FMES) Round(env *fed.Env, round int) map[simtime.Phase]float64 {
	cfg := env.Global.Cfg
	prof := profile.Profiler{Bits: s.ProfileBits}

	cohort := env.Cohort(round)
	slots := make([]fed.SlotResult, len(cohort))
	err := fed.ForEachOf(env, cohort, func(ws *fed.Scratch, slot, i int) {
		dev := env.Devices[i]
		env.MarkPhase(simtime.PhaseProfiling)
		mws := ws.Workspace()
		batch := env.Batch(i, round)
		// Fresh profiling each round (FMES has no stale pipeline). The
		// quantized profiling model is built in the worker scratch
		// (clone-into + in-place round-trip ≡ moe.QuantizedClone).
		qm := ws.LocalClone(env.Global)
		moe.Quantize(qm, prof.Bits)
		res := prof.RunOn(qm, cfg, batch, mws)
		profSec := res.Seconds(dev, cfg)

		_, tune := env.Budgets(i)
		tuning := TopByFrequency(res.Stats, cfg, tune)
		local, err := discardModel(env.Global, tuning)
		if err != nil {
			panic(fmt.Sprintf("fmes: %v", err))
		}

		env.MarkPhase(simtime.PhaseFineTuning)
		grads := ws.Grads(local)
		tokens := 0
		for it := 0; it < env.Cfg.LocalIters; it++ {
			for _, smp := range batch {
				seq, mask := smp.FullSequence()
				local.ForwardBackwardWS(mws, seq, mask, grads, nil, -1)
				tokens += len(seq)
			}
			local.ApplySGD(grads, env.Cfg.LR/float64(len(batch)))
		}
		tuneFrac := float64(tune) / float64(max(1, env.TotalExperts()))
		trainSec := dev.Seconds(simtime.TrainFlops(cfg, tokens, tuneFrac))

		env.MarkPhase(simtime.PhaseComm)
		u := ws.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
		bytes := fed.UpdateBytes(u)
		down := float64(tune) * simtime.ExpertBytes(cfg)
		slots[slot] = fed.SlotResult{
			Update: u, Bytes: bytes, DownBytes: down,
			Phases: map[simtime.Phase]float64{
				simtime.PhaseProfiling:  profSec,
				simtime.PhaseFineTuning: trainSec,
				simtime.PhaseComm:       dev.UplinkSeconds(bytes) + dev.DownlinkSeconds(down),
			},
		}
	})
	if err != nil {
		return nil
	}
	return env.FinishRound(cohort, slots)
}

// topByFrequency picks the budget highest-frequency experts across all
// layers, guaranteeing at least one per layer so the model remains runnable.
func TopByFrequency(stats *moe.ActivationStats, cfg moe.Config, budget int) [][]int {
	type cand struct {
		layer, expert int
		freq          float64
	}
	var cands []cand
	for l, n := range cfg.ExpertsPerLayer {
		for e := 0; e < n; e++ {
			cands = append(cands, cand{l, e, stats.Frequency(l, e)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].freq != cands[j].freq {
			return cands[i].freq > cands[j].freq
		}
		if cands[i].layer != cands[j].layer {
			return cands[i].layer < cands[j].layer
		}
		return cands[i].expert < cands[j].expert
	})
	if budget < cfg.Layers() {
		budget = cfg.Layers()
	}
	out := make([][]int, cfg.Layers())
	// First pass: per-layer best to guarantee coverage.
	seen := make(map[[2]int]bool)
	for l := range out {
		for _, c := range cands {
			if c.layer == l {
				out[l] = append(out[l], c.expert)
				seen[[2]int{l, c.expert}] = true
				break
			}
		}
	}
	used := cfg.Layers()
	for _, c := range cands {
		if used >= budget {
			break
		}
		k := [2]int{c.layer, c.expert}
		if seen[k] {
			continue
		}
		seen[k] = true
		out[c.layer] = append(out[c.layer], c.expert)
		used++
	}
	for l := range out {
		sort.Ints(out[l])
	}
	return out
}

// discardModel builds a local model that keeps only the tuning experts and
// replaces everything else with a zero expert per layer — the "skip expert
// computation" compensation the paper describes in §2.2.3.
func discardModel(global *moe.Model, tuning [][]int) (*moe.Model, error) {
	specs := make([]moe.LayerSpec, len(global.Layers))
	for l, layer := range global.Layers {
		isTuning := make([]bool, layer.OrigExperts)
		for _, id := range tuning[l] {
			isTuning[id] = true
		}
		var rest []int
		for e := 0; e < layer.OrigExperts; e++ {
			if !isTuning[e] {
				rest = append(rest, e)
			}
		}
		spec := moe.LayerSpec{Tuning: append([]int(nil), tuning[l]...)}
		if len(rest) > 0 {
			spec.MergeGroups = [][]int{rest}
		}
		specs[l] = spec
	}
	local, err := moe.Customize(global, specs)
	if err != nil {
		return nil, err
	}
	// Zero the merged placeholder: tokens routed to discarded experts get
	// no FFN contribution (computation skipped).
	for _, layer := range local.Layers {
		for _, e := range layer.Experts {
			if len(e.MergedFrom) == 0 {
				continue
			}
			e.W1.Zero()
			e.W2.Zero()
			for j := range e.B1 {
				e.B1[j] = 0
			}
			for j := range e.B2 {
				e.B2[j] = 0
			}
		}
	}
	return local, nil
}
