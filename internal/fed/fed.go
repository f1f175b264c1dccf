// Package fed implements the synchronous-round federated learning engine the
// paper builds on: a parameter server holding the global MoE model, a fleet
// of heterogeneous participants with non-IID data shards, FedAvg aggregation
// over expert parameters, and a simulated clock that prices every phase of a
// round.
//
// Method implementations (Flux and the FMD/FMQ/FMES baselines) plug in as
// Rounders: the engine owns data, devices, evaluation, and time accounting;
// a Rounder owns what happens inside one round.
package fed

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

// Config controls a federated fine-tuning run.
type Config struct {
	Participants  int
	Batch         int // samples per participant per round
	LocalIters    int // local passes over the batch per round
	LR            float64
	Alpha         float64 // Dirichlet non-IID concentration
	DatasetSize   int
	EvalSubset    int // test samples per evaluation
	MaxRounds     int
	PretrainSteps int
	PretrainBatch int
	PretrainLR    float64

	// ServerBw is the parameter server's ingest/egress bandwidth in bytes/s,
	// shared across participants; aggregation time grows with the fleet,
	// producing the diminishing scalability returns of Figures 12–13.
	ServerBw float64

	// Workers bounds the pool ForEachParticipant fans participant execution
	// over. Zero (the default) resolves to GOMAXPROCS; one forces the serial
	// path. Convergence results are bit-identical at every setting — the
	// parallel layer only changes wall-clock time, never the math.
	Workers int

	// Fleet describes heterogeneity: per-participant device profiles,
	// availability, cohort selection, and straggler deadlines. The zero
	// Spec is inactive — uniform devices, everyone participates every
	// round, no deadline — and produces bit-identical results to runs
	// predating the fleet subsystem.
	Fleet fleet.Spec

	// Agg selects the server's aggregation discipline: synchronous barrier
	// rounds (the zero value, bit-identical to runs predating the
	// event-driven core), buffered-async, or semi-sync. See AggSpec.
	Agg AggSpec
}

// DefaultConfig returns the settings used by the paper-shaped experiments:
// 10 participants, mini-batch fine-tuning with FedAvg, 1 local iteration
// (§8.1), and a brief pre-training phase so expert routing is non-uniform.
func DefaultConfig() Config {
	return Config{
		Participants:  10,
		Batch:         6,
		LocalIters:    2,
		LR:            2.0,
		Alpha:         0.3,
		DatasetSize:   300,
		EvalSubset:    16,
		MaxRounds:     30,
		PretrainSteps: 700,
		PretrainBatch: 8,
		PretrainLR:    2.0,
		ServerBw:      2e4,
	}
}

// Validate reports the first invalid setting, or nil.
func (c Config) Validate() error {
	switch {
	case c.Participants <= 0:
		return fmt.Errorf("fed: participants %d must be positive", c.Participants)
	case c.Batch <= 0 || c.LocalIters <= 0:
		return fmt.Errorf("fed: batch %d / iters %d must be positive", c.Batch, c.LocalIters)
	case c.LR <= 0:
		return fmt.Errorf("fed: learning rate %v must be positive", c.LR)
	case c.DatasetSize < c.Participants:
		return fmt.Errorf("fed: dataset size %d below participant count", c.DatasetSize)
	case c.MaxRounds <= 0:
		return fmt.Errorf("fed: max rounds %d must be positive", c.MaxRounds)
	case c.ServerBw <= 0:
		return fmt.Errorf("fed: server bandwidth %v must be positive", c.ServerBw)
	case c.Workers < 0:
		return fmt.Errorf("fed: workers %d must be non-negative (0 = GOMAXPROCS)", c.Workers)
	}
	if err := c.Agg.Validate(); err != nil {
		return err
	}
	if c.Agg.Active() {
		// The drop policy is a synchronous-barrier concept; the event-driven
		// modes never drop an update (late ones are discounted or carried).
		if c.Fleet.Drop {
			return fmt.Errorf("fed: aggregation mode %q never drops updates; remove the fleet drop policy", c.Agg.Mode)
		}
		if c.Agg.Mode == ModeSemiSync && c.Fleet.Deadline <= 0 {
			return fmt.Errorf("fed: semisync aggregation needs a fleet deadline_sec > 0 as its round clock")
		}
		if c.Agg.BufferK > c.Participants {
			return fmt.Errorf("fed: aggregation buffer_k %d exceeds the fleet size %d", c.Agg.BufferK, c.Participants)
		}
	}
	return c.Fleet.Validate(c.Participants)
}

// Env is a fully materialized federated experiment: pre-trained global
// model, per-participant shards and devices, and a held-out test set.
type Env struct {
	Cfg     Config
	Profile data.Profile
	Global  *moe.Model
	Shards  [][]*data.Sample
	Test    []*data.Sample
	Devices []simtime.Device
	RNG     *tensor.RNG

	ctx   context.Context
	state *envState
}

// envState is the environment's mutable shared state, held behind a pointer
// so Env values can be shallow-copied (CloneForMethod) without copying locks
// or sharing counters across clones.
type envState struct {
	mu      sync.Mutex
	obs     RoundObs
	scratch []*Scratch

	// Event-driven server core (AggSpec active): the global model's version
	// (bumped once per buffer flush) and the carry-over buffer of updates
	// awaiting aggregation. Both persist across rounds of one run and start
	// fresh per CloneForMethod.
	version int
	pending []pendingUpdate

	// Observability: the attached span/run-log recorder (nil when no sink is
	// configured — the common case, and the one the hot path is tuned for),
	// the method label CloneForMethod stamped for CPU-profile attribution,
	// and the lazily built per-phase pprof label contexts.
	rec    *obs.Recorder
	method string
	labels map[simtime.Phase]context.Context
}

// envStateInit guards lazy state allocation for Env values assembled by
// composite literal outside this package (everything in-repo goes through
// NewEnv/CloneForMethod, which allocate state at construction). A global
// mutex keeps the goroutine-safety promise of Observe*/TakeRoundObs even on
// such hand-built environments; it is taken once per round-level call, never
// on a hot path.
var envStateInit sync.Mutex

// st returns the environment's shared state, allocating it on first use for
// Env values not built by NewEnv.
func (e *Env) st() *envState {
	envStateInit.Lock()
	s := e.state
	if s == nil {
		s = &envState{}
		e.state = s
	}
	envStateInit.Unlock()
	return s
}

// scratches returns at least n per-worker scratches, growing the pool on
// first use and whenever the worker count rises. Scratches persist for the
// environment's lifetime so worker buffers survive across rounds.
func (e *Env) scratches(n int) []*Scratch {
	st := e.st()
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.scratch) < n {
		st.scratch = append(st.scratch, &Scratch{})
	}
	return st.scratch[:n]
}

// RoundObs collects per-round observability counters that Rounders report
// into: the payload bytes participants uploaded, the number of distinct
// experts the server aggregated, and the round's participation census. The
// driver drains it after each round with TakeRoundObs.
type RoundObs struct {
	UplinkBytes    float64
	ExpertsTouched int

	// DownlinkBytes is the modeled broadcast payload participants received
	// this round (the model or expert subset the server pushed down). Zero
	// when a Rounder predates downlink reporting.
	DownlinkBytes float64

	// Selected is how many participants the cohort selector picked for the
	// round; Completed is how many updates the server aggregated;
	// Dropped = Selected - Completed. Under the drop policy Completed
	// normally counts participants that made the deadline, with one
	// exception: when every cohort member misses it, the server waits past
	// the deadline for the single fastest update (Completed = 1 even though
	// that participant, too, was late). All zero when a Rounder predates
	// cohort reporting.
	Selected  int
	Completed int
	Dropped   int

	// Event-driven aggregation observability (zero in synchronous mode):
	// ModelVersion is the global model version after the round (one bump per
	// buffer flush), Stale counts updates aggregated with staleness > 0, and
	// Pending is the carry-over buffer size at the end of the round.
	ModelVersion int
	Stale        int
	Pending      int
}

// SetContext attaches a cancellation context to the environment. Round
// implementations poll Canceled between participants so a long round can be
// abandoned promptly.
func (e *Env) SetContext(ctx context.Context) { e.ctx = ctx }

// Context returns the attached context, never nil.
func (e *Env) Context() context.Context {
	if e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// Canceled reports whether the attached context has been canceled.
func (e *Env) Canceled() bool { return e.Context().Err() != nil }

// ObserveUplink accumulates uploaded payload bytes for the current round.
// FinishRound reports traffic itself; this and the other Observe methods
// serve Rounders that reduce by hand. It is goroutine-safe, but a
// deterministic Rounder must still reduce per-participant byte counts in
// participant-index order before reporting — float accumulation order is
// part of the bit-identity contract — and call this once per round.
func (e *Env) ObserveUplink(bytes float64) {
	st := e.st()
	st.mu.Lock()
	st.obs.UplinkBytes += bytes
	st.mu.Unlock()
}

// ObserveDownlink accumulates modeled broadcast payload bytes (server →
// participants) for the current round. The ordered-reduction contract of
// ObserveUplink applies.
func (e *Env) ObserveDownlink(bytes float64) {
	st := e.st()
	st.mu.Lock()
	st.obs.DownlinkBytes += bytes
	st.mu.Unlock()
}

// ObserveAggregated records how many distinct experts the current round's
// aggregation touched. It is goroutine-safe.
func (e *Env) ObserveAggregated(n int) {
	st := e.st()
	st.mu.Lock()
	st.obs.ExpertsTouched = n
	st.mu.Unlock()
}

// observeCohort records the round's participation census: how many
// participants were selected, how many updates the server aggregated, and
// how many the straggler deadline dropped. It is goroutine-safe.
func (e *Env) observeCohort(selected, completed, dropped int) {
	st := e.st()
	st.mu.Lock()
	st.obs.Selected = selected
	st.obs.Completed = completed
	st.obs.Dropped = dropped
	st.mu.Unlock()
}

// TakeRoundObs returns the counters accumulated since the last call and
// resets them. It is goroutine-safe.
func (e *Env) TakeRoundObs() RoundObs {
	st := e.st()
	st.mu.Lock()
	o := st.obs
	st.obs = RoundObs{}
	st.mu.Unlock()
	return o
}

// SetRecorder attaches an observability recorder. Rounders and the
// event-driven server report per-participant and per-flush observations into
// it; the round driver owns its lifecycle (BeginRun/EndRound/Close). A nil
// recorder detaches — the default, and the state every clone starts in.
func (e *Env) SetRecorder(rec *obs.Recorder) {
	st := e.st()
	st.mu.Lock()
	st.rec = rec
	st.mu.Unlock()
}

// Obs returns the attached recorder, or nil when observability is off. The
// nil case is the fast path: callers check once per round (never per
// participant or per token) and skip all collection work, so a disabled
// recorder costs one mutexed pointer read per round and zero allocations.
func (e *Env) Obs() *obs.Recorder {
	st := e.st()
	st.mu.Lock()
	rec := st.rec
	st.mu.Unlock()
	return rec
}

// MarkPhase tags the calling goroutine's CPU-profile samples with the given
// round phase (and the environment's method label), so -cpuprofile output is
// attributable per phase. Label contexts are prebuilt once per environment;
// steady-state calls are a map lookup plus pprof.SetGoroutineLabels, which
// does not allocate. Unknown phases leave the current labels in place.
// Purely a profiling annotation — it never changes behavior or results.
func (e *Env) MarkPhase(p simtime.Phase) {
	st := e.st()
	st.mu.Lock()
	if st.labels == nil {
		method := st.method
		if method == "" {
			method = "env"
		}
		canonical := simtime.CanonicalPhases()
		st.labels = make(map[simtime.Phase]context.Context, len(canonical))
		for _, ph := range canonical {
			st.labels[ph] = pprof.WithLabels(context.Background(),
				pprof.Labels("method", method, "phase", string(ph)))
		}
	}
	ctx, ok := st.labels[p]
	st.mu.Unlock()
	if ok {
		pprof.SetGoroutineLabels(ctx)
	}
}

// methodName returns the label CloneForMethod stamped on this environment,
// or "env" for hand-built environments, for CPU-profile attribution.
func (e *Env) methodName() string {
	st := e.st()
	st.mu.Lock()
	m := st.method
	st.mu.Unlock()
	if m == "" {
		return "env"
	}
	return m
}

// phaseStrings converts a Rounder phase map to the string-keyed form the
// observability layer serializes. Only called on recorder-enabled paths, so
// the per-round allocation never taxes a disabled run.
func phaseStrings(phases map[simtime.Phase]float64) map[string]float64 {
	if len(phases) == 0 {
		return nil
	}
	out := make(map[string]float64, len(phases))
	//fluxvet:unordered map-to-map copy; per-key writes, element order irrelevant
	for p, v := range phases {
		out[string(p)] = v
	}
	return out
}

// NewEnv builds an environment: generates the synthetic dataset, pre-trains
// the global model on the training mixture, partitions training data
// non-IID, and assigns devices round-robin over the consumer tiers.
//
// seed names the experiment; everything downstream is deterministic in it.
func NewEnv(modelCfg moe.Config, profile data.Profile, cfg Config, seed string) (*Env, error) {
	return NewEnvContext(context.Background(), modelCfg, profile, cfg, seed)
}

// NewEnvContext is NewEnv with cancellation: base-model pre-training (the
// expensive part of construction) polls the context between steps.
func NewEnvContext(ctx context.Context, modelCfg moe.Config, profile data.Profile, cfg Config, seed string) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := modelCfg.Validate(); err != nil {
		return nil, err
	}
	root := tensor.Named(seed)
	ds := data.Generate(profile, modelCfg.VocabSize, cfg.DatasetSize, root.Split("data"))
	train, test := ds.Split(0.8, root.Split("split"))

	model, err := BaseModelContext(ctx, modelCfg, cfg)
	if err != nil {
		return nil, err
	}

	shards := data.PartitionNonIID(train, cfg.Participants, cfg.Alpha, root.Split("partition"))
	devices := make([]simtime.Device, cfg.Participants)
	tiers := simtime.ConsumerTiers()
	for i := range devices {
		devices[i] = simtime.TierFor(tiers, i)
		// Fleet profiles scale the assigned tier; the identity profile (and
		// an inactive fleet) leaves the device bit-identical.
		devices[i] = cfg.Fleet.ProfileFor(i).Apply(devices[i])
	}
	return &Env{
		Cfg:     cfg,
		Profile: profile,
		Global:  model,
		Shards:  shards,
		Test:    test,
		Devices: devices,
		RNG:     root.Split("run"),
		state:   &envState{},
	}, nil
}

// CloneForMethod duplicates the environment with an independent copy of the
// global model and a method-specific RNG stream, so several methods start
// from an identical state.
func (e *Env) CloneForMethod(method string) *Env {
	c := *e
	c.Global = e.Global.Clone()
	c.RNG = tensor.Named("method/" + method).Split(e.Profile.Name)
	c.state = &envState{method: method} // fresh counters and worker scratch, not shared
	return &c
}

// TotalExperts returns the number of experts in the global model.
func (e *Env) TotalExperts() int {
	var n int
	for _, k := range e.Global.Cfg.ExpertsPerLayer {
		n += k
	}
	return n
}

// Budgets returns participant i's expert-capacity and tuning budgets
// (B_i and B_tune_i of §3), derived from its device profile. Both are at
// least one per constraint sanity.
func (e *Env) Budgets(i int) (capacity, tune int) {
	total := e.TotalExperts()
	capacity = int(e.Devices[i].CapacityFrac * float64(total))
	tune = int(e.Devices[i].TuneFrac * float64(total))
	if capacity < e.Global.Cfg.Layers() {
		capacity = e.Global.Cfg.Layers() // at least one expert per layer
	}
	if tune < 1 {
		tune = 1
	}
	if tune > capacity {
		tune = capacity
	}
	return capacity, tune
}

// Batch returns participant i's training mini-batch for round r: a
// deterministic rotation through its shard.
func (e *Env) Batch(i, r int) []*data.Sample {
	shard := e.Shards[i]
	n := e.Cfg.Batch
	if n > len(shard) {
		n = len(shard)
	}
	out := make([]*data.Sample, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, shard[(r*n+k)%len(shard)])
	}
	return out
}

// Evaluate scores the global model on the held-out test subset.
func (e *Env) Evaluate() float64 {
	return eval.EvaluateSubset(e.Global, e.Profile, e.Test, e.Cfg.EvalSubset)
}

// ExpertKey identifies an expert by layer and original index.
type ExpertKey struct {
	Layer, Expert int
}

// Update is one participant's contribution to a round: the flattened
// parameters of each expert it fine-tuned, plus an aggregation weight
// (its sample count, per FedAvg).
type Update struct {
	Participant int
	Weight      float64
	Experts     map[ExpertKey][]float64
}

// ExtractUpdate collects the current parameters of the given tuning experts
// from a participant's local model.
func ExtractUpdate(local *moe.Model, participant int, weight float64, tuning [][]int) Update {
	u := Update{Participant: participant, Weight: weight, Experts: make(map[ExpertKey][]float64)}
	for l, ids := range tuning {
		for _, orig := range ids {
			e := local.ExpertAt(l, orig)
			u.Experts[ExpertKey{Layer: l, Expert: orig}] = e.FlattenTo(nil)
		}
	}
	return u
}

// Aggregate applies FedAvg to the global model: for every expert touched by
// at least one update, the new global parameters are the weight-averaged
// participant parameters. Untouched experts are left as they are. It returns
// the number of distinct experts updated.
func Aggregate(global *moe.Model, updates []Update) int {
	type acc struct {
		sum    []float64
		weight float64
	}
	accs := make(map[ExpertKey]*acc)
	for _, u := range updates {
		w := u.Weight
		if w <= 0 {
			w = 1
		}
		//fluxvet:unordered per-key accumulators: each expert folds its float sum in update (outer-loop) order; key visit order only interleaves independent accs
		for key, params := range u.Experts {
			a := accs[key]
			if a == nil {
				a = &acc{sum: make([]float64, len(params))}
				accs[key] = a
			}
			for i, v := range params {
				a.sum[i] += w * v
			}
			a.weight += w
		}
	}
	//fluxvet:unordered disjoint per-expert writes into the global model; no cross-key accumulation
	for key, a := range accs {
		inv := 1 / a.weight
		for i := range a.sum {
			a.sum[i] *= inv
		}
		global.ExpertAt(key.Layer, key.Expert).LoadFlat(a.sum)
	}
	return len(accs)
}

// UpdateBytes returns the wire size of an update at FP32.
func UpdateBytes(u Update) float64 {
	var params int
	//fluxvet:unordered integer size sum; addition order cannot change the total
	for _, p := range u.Experts {
		params += len(p)
	}
	return float64(params) * 4
}

// Rounder is a federated fine-tuning method: it executes one round,
// mutating env.Global, and reports the simulated duration of the round
// broken down by phase. The built-ins run their cohort's participants and
// end with Env.FinishRound, which owns the server-side reduction.
type Rounder interface {
	Name() string
	Round(env *Env, r int) map[simtime.Phase]float64
}

// Run drives a Rounder until the evaluation score reaches target or
// MaxRounds elapse, recording a convergence curve against simulated time.
// It returns the tracker and the final clock. This is the experiment
// harness's driver; the SDK's Experiment.Run adds cancellation, events and
// the observability sinks.
func Run(env *Env, m Rounder, target float64) (*metrics.Tracker, *simtime.Clock) {
	clock := simtime.NewClock()
	tr := &metrics.Tracker{Target: env.Profile.MetricName}
	tr.Record(0, clock.Hours(), env.Evaluate())
	for r := 0; r < env.Cfg.MaxRounds; r++ {
		clock.AdvanceAll(m.Round(env, r)) // sorted: simulated time accumulates bit-reproducibly
		env.TakeRoundObs()                // drained so the per-round counters never accumulate across rounds
		score := env.Evaluate()
		tr.Record(r+1, clock.Hours(), score)
		if target > 0 && score >= target {
			break
		}
	}
	return tr, clock
}
