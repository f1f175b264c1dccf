package flux

import (
	"context"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

// This file is the public face of the federated engine: everything a module
// outside this repository needs to implement a custom method (Rounder) or a
// custom execution substrate (Transport) without importing internal/
// packages. The engine itself lives under internal/fed; the names here are
// aliases and thin wrappers over it, so a value built through this surface
// is the same value the built-in methods, both transports, and the
// experiment harness operate on — no translation layer, no drift.
//
// A method implementation typically looks like the synchronous FedAvg loop:
// for each participant of the round's cohort (env.Cohort), clone the global
// model (env.Global.Clone), run local SGD over env.Batch(i, r) with
// NewGrads/ForwardBackward/ApplySGD, extract the tuned experts with
// ExtractUpdate, and record a SlotResult with its traffic and per-phase
// simulated seconds; then return env.FinishRound(cohort, slots), which
// aggregates and accounts the round the way every built-in does. See
// examples/external_method for a complete out-of-module method, and package
// fluxtest for the conformance suite every implementation should pass.

// EngineConfig is the engine-level configuration a Rounder constructor
// receives: fleet size, round budget, local-SGD settings, and the simulated
// parameter-server bandwidth. It is the resolved, engine-shaped counterpart
// of the SDK's Config (Config.Rounds arrives as MaxRounds).
type EngineConfig = fed.Config

// DefaultEngineConfig returns the engine settings used by the paper-shaped
// experiments (§8.1).
func DefaultEngineConfig() EngineConfig { return fed.DefaultConfig() }

// Env is a fully materialized federated experiment: the pre-trained global
// model, per-participant non-IID shards and device profiles, a held-out test
// set, and per-round observability counters. Rounders end each round with
// FinishRound, which aggregates into env.Global and reports the round's
// traffic and census; drivers score progress with Evaluate. Build one with
// NewEnv, or let Experiment.Run build it for you.
type Env = fed.Env

// Rounder is a federated fine-tuning method: it executes one round,
// mutating env.Global, and returns the simulated duration of the round
// broken down by Phase. Implementations must be deterministic in the
// environment's seed, must poll env.Canceled between participants so a long
// round can be abandoned promptly, and must aggregate participants in a
// fixed order so floating-point accumulation is reproducible. Ending the
// round with env.FinishRound covers the last point and honors the
// configured deadline and aggregation mode. Package fluxtest checks all of
// these contracts.
type Rounder = fed.Rounder

// Update is one participant's contribution to a round: the flattened
// parameters of each expert it fine-tuned plus its FedAvg weight.
type Update = fed.Update

// Scratch is the per-worker reusable memory ForEachParticipant hands to a
// participant body: a persistent local-model clone buffer (LocalClone), a
// gradient accumulator (Grads), and a flatten arena (ExtractUpdate). Buffers
// persist across rounds of the same environment; do not retain references
// past the round's reduction.
type Scratch = fed.Scratch

// ExpertKey identifies an expert by layer and original index.
type ExpertKey = fed.ExpertKey

// Model is the trainable MoE transformer substrate participants fine-tune.
type Model = moe.Model

// Expert is one feed-forward expert of a Model (see Model.ExpertAt).
type Expert = moe.Expert

// Grads is a gradient accumulator over a Model's trainable parameters;
// build one with NewGrads.
type Grads = moe.Grads

// Sample is one synthetic task sample; env.Batch and env.Shards hand these
// to method implementations.
type Sample = data.Sample

// DatasetProfile describes a synthetic dataset (env.Profile).
type DatasetProfile = data.Profile

// DeviceProfile models one participant's hardware (env.Devices[i]); its
// Seconds/UplinkSeconds/OffloadSeconds methods price the operations a round
// performs, for the simulated-time breakdown a Rounder returns.
type DeviceProfile = simtime.Device

// RNG is the deterministic random stream of an environment (env.RNG).
type RNG = tensor.RNG

// Phase labels a component of simulated round time in the map a Rounder
// returns and in RoundEvent.Phases.
type Phase = simtime.Phase

// The canonical round phases. Custom methods may introduce their own Phase
// values; these are the ones the built-ins report and the paper's overhead
// breakdown (Figure 20) charts.
const (
	PhaseProfiling  = simtime.PhaseProfiling
	PhaseMerging    = simtime.PhaseMerging
	PhaseAssignment = simtime.PhaseAssignment
	PhaseFineTuning = simtime.PhaseFineTuning
	PhaseComm       = simtime.PhaseComm

	// PhaseStraggler is server idle time at a straggler deadline (drop
	// policy only): the shortfall between the last kept participant and the
	// deadline the server waited out.
	PhaseStraggler = simtime.PhaseStraggler
)

// MetricsRegistry is a small goroutine-safe metric registry with Prometheus
// text exposition: Counter and Gauge are get-or-create by name, WriteText
// emits the sorted text format, and the registry itself is an http.Handler
// serving a /metrics scrape endpoint. Pass one to WithMetrics (or
// ServerConfig.Metrics) to watch a run live.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEnv materializes the federated environment cfg describes: synthesizes
// the dataset, pre-trains the base model (cached per architecture and
// pre-training settings), partitions training data non-IID, and assigns
// device profiles. The returned environment carries a method-specific RNG
// stream derived from cfg.Method, so different methods compared under the
// same seed start from identical state but draw independent randomness.
//
// Experiment.Run does this internally; NewEnv exists so method authors can
// drive a Rounder directly — fluxtest uses it for its conformance checks.
func NewEnv(ctx context.Context, cfg Config) (*Env, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	modelCfg, err := modelConfigByName(cfg.Model)
	if err != nil {
		return nil, err
	}
	profile, err := data.ProfileByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	env, err := fed.NewEnvContext(ctx, modelCfg, profile, cfg.EngineConfig(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return env.CloneForMethod(cfg.Method), nil
}

// NewGrads returns a full-precision gradient accumulator for m, for the
// NewGrads → ForwardBackward → ApplySGD local-training loop.
func NewGrads(m *Model) *Grads { return moe.NewGrads(m, false) }

// ForEachParticipant executes fn once for every participant index over the
// environment's worker pool (EngineConfig.Workers wide; zero means
// GOMAXPROCS), handing each invocation its worker's Scratch. It is how a
// custom Rounder gets deterministic parallel participant execution: split
// env.RNG per participant before calling it, have fn write only
// per-participant state against the read-only env.Global, and reduce
// (aggregate, sum uplink bytes, take phase maxima) in participant-index
// order after it returns. A non-nil error means the round was canceled; the
// Rounder must then return nil phases without aggregating. The built-in
// methods all run on this pool; fluxtest verifies the resulting bit-identity
// between serial and parallel execution.
func ForEachParticipant(env *Env, fn func(s *Scratch, i int)) error {
	return fed.ForEachParticipant(env, fn)
}

// ForEachCohort executes fn once for every listed participant over the
// environment's worker pool, handing each invocation its worker's Scratch,
// the participant's slot in the cohort, and the participant index. It is the
// cohort-aware counterpart of ForEachParticipant: a fleet-aware Rounder
// resolves the round's cohort with env.Cohort(r), fans work out with
// ForEachCohort(env, cohort, ...), writes results by slot, and reduces in
// slot order — typically by handing one SlotResult per slot to
// env.FinishRound, which applies the configured deadline, drop policy and
// aggregation mode. The determinism and cancellation contract is
// ForEachParticipant's.
func ForEachCohort(env *Env, cohort []int, fn func(s *Scratch, slot, participant int)) error {
	return fed.ForEachOf(env, cohort, fn)
}

// AggregationSpec selects the server's aggregation mode: synchronous (the
// zero value), buffered-async, or semi-synchronous. See WithAggregation and
// the "Aggregation modes" section of the README for the semantics of each
// mode, the buffer size, and staleness weighting.
type AggregationSpec = fed.AggSpec

// The aggregation mode names AggregationSpec.Mode accepts. The empty string
// means AggSync.
const (
	// AggSync is the classic synchronous protocol: every round barriers on
	// the whole cohort (minus deadline drops) before one aggregation.
	AggSync = fed.ModeSync
	// AggAsync is buffered-async (FedBuff-style): the server aggregates as
	// soon as BufferK updates arrive, weighting each by
	// 1/(1+staleness)^StalenessAlpha against a version-tagged global model.
	// Each flush blends into the global at server rate buffer/cohort (the
	// current parameters anchor the weighted mean), and leftover updates
	// carry into the next round's buffer.
	AggAsync = fed.ModeAsync
	// AggSemiSync runs a fixed round clock (the fleet deadline): updates
	// arriving by the clock aggregate together; late updates are never
	// dropped — they carry into the next round's buffer with their staleness.
	AggSemiSync = fed.ModeSemiSync
)

// SlotResult is one cohort slot's finished work, handed to Env.FinishRound
// at the end of a round: the participant's update, its modeled uplink and
// downlink payloads, and its per-phase simulated seconds (whose sum is the
// participant's end-to-end round time, checked against the straggler
// deadline and used to order arrivals at an event-driven server).
type SlotResult = fed.SlotResult

// TuneAllExperts returns per-layer expert-id lists naming every expert of m
// — the tuning set of a full-model method, and exactly what the TCP wire
// protocol fine-tunes by default.
func TuneAllExperts(m *Model) [][]int { return fed.IdentityTuning(m.Cfg) }

// ExtractUpdate collects the current parameters of the given tuning experts
// (per-layer id lists, as produced by TuneAllExperts) from a participant's
// local model, weighted for FedAvg by its sample count.
func ExtractUpdate(local *Model, participant int, weight float64, tuning [][]int) Update {
	return fed.ExtractUpdate(local, participant, weight, tuning)
}

// Aggregate applies FedAvg to the global model: every expert touched by at
// least one update becomes the weight-averaged participant parameters;
// untouched experts keep their values. It returns the number of distinct
// experts updated. env.FinishRound aggregates for you; a Rounder that
// reduces by hand calls this and reports the count via env.ObserveAggregated.
func Aggregate(global *Model, updates []Update) int {
	return fed.Aggregate(global, updates)
}

// UpdateBytes returns the FP32 wire size of an update: a SlotResult's Bytes,
// or, in a hand-rolled reduction, what to sum into env.ObserveUplink.
func UpdateBytes(u Update) float64 { return fed.UpdateBytes(u) }

// TrainFlops returns the arithmetic cost of local training over tokens
// tokens on m, with tuningFrac the trainable fraction of expert compute;
// divide by a DeviceProfile's throughput via its Seconds method.
func TrainFlops(m *Model, tokens int, tuningFrac float64) float64 {
	return simtime.TrainFlops(m.Cfg, tokens, tuningFrac)
}

// ModelBytes returns the FP32 size of the full model, the downlink payload
// of a round broadcast.
func ModelBytes(m *Model) float64 { return simtime.ModelBytes(m.Cfg) }

// ExpertBytes returns the FP32 size of one expert of m.
func ExpertBytes(m *Model) float64 { return simtime.ExpertBytes(m.Cfg) }
