package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	flux "repro"
	"repro/internal/eval"
	"repro/internal/fed"
	"repro/internal/flux/assign"
	"repro/internal/flux/merge"
	"repro/internal/flux/profile"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// replayEvery picks the fixed sample of rounds whose participant work the
// traced run replays: rounds r with r%replayEvery == 2 (0-based).
const replayEvery = 5

// span is one traced round. wall runs from the previous RoundEvent to this
// one; replay is the part of it spent replaying participant work; round is
// the inner Transport.Round; eval runs from Round returning to the event.
type span struct {
	wall, replay, round, eval time.Duration
}

// tracer decorates a Transport. It times the inner Round and the
// evaluation gap Experiment.Run spends after it, and on sampled rounds
// replays the cohort's participant work on clones of env.Global before the
// round runs, timing each layer's public function. Replays touch only clones and their own
// RNG stream, so the score curve stays bit-identical to an untraced run.
type tracer struct {
	w     workload
	inner flux.Transport
	env   *flux.Env

	samples  map[string][]float64
	spans    []span
	cur      span
	roundEnd time.Time
	lastEv   time.Time

	ws   *moe.Workspace
	qbuf *moe.Model
	rng  *tensor.RNG
}

func newTracer(w workload) *tracer {
	return &tracer{w: w, samples: make(map[string][]float64), ws: moe.NewWorkspace(), rng: tensor.Named("fluxbench/replay")}
}

func (t *tracer) wrap(inner flux.Transport) flux.Transport {
	t.inner = inner
	return t
}

func (t *tracer) Name() string { return t.inner.Name() }

func (t *tracer) Start(ctx context.Context, env *flux.Env, method string) error {
	t.env = env
	return t.inner.Start(ctx, env, method)
}

func (t *tracer) Close() error { return t.inner.Close() }

func (t *tracer) Round(ctx context.Context, r int) (flux.RoundStats, error) {
	t.cur = span{}
	var serial time.Duration
	if r%replayEvery == 2 {
		begin := now()
		serial = t.replay(r)
		t.cur.replay = since(begin)
	}
	begin := now()
	st, err := t.inner.Round(ctx, r)
	t.roundEnd = now()
	t.cur.round = t.roundEnd.Sub(begin)
	if serial > 0 && !t.w.tcp {
		workers := t.env.Cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		t.add("fed.pool_efficiency", serial.Seconds()/(float64(workers)*t.cur.round.Seconds()))
	}
	return st, err
}

// onEvent closes the current round's span when Experiment.Run emits its
// event.
func (t *tracer) onEvent(ev flux.RoundEvent) {
	at := now()
	if ev.Round > 0 {
		t.cur.eval = at.Sub(t.roundEnd)
		t.cur.wall = at.Sub(t.lastEv)
		t.spans = append(t.spans, t.cur)
	}
	t.lastEv = at
}

func (t *tracer) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func (t *tracer) time(name string, unit time.Duration, begin time.Time) time.Duration {
	d := since(begin)
	t.add(name, float64(d)/float64(unit))
	return d
}

// replay re-executes round r's participant work for the workload's method
// on a clone of the global model, then aggregates the replayed updates into
// another clone and evaluates it. It returns the serial sum of the
// participants' work.
func (t *tracer) replay(r int) time.Duration {
	env := t.env
	g := env.Global.Clone()
	var blob []byte
	if t.w.tcp {
		begin := now()
		b, err := g.EncodeBytes()
		t.time("wire.encode_ms", time.Millisecond, begin)
		if err != nil {
			panic(fmt.Sprintf("encode global model: %v", err)) // a clone of a valid model always encodes
		}
		blob = b
	}
	var (
		serial  time.Duration
		updates []fed.Update
	)
	eps := assign.DefaultDynamicEpsilon(t.w.rounds).Epsilon(r)
	for _, i := range env.Cohort(r) {
		var u fed.Update
		var d time.Duration
		if t.w.method == "flux" {
			u, d = t.replayFlux(g, i, r, eps)
		} else {
			u, d = t.replayFull(g, blob, i, r)
		}
		updates = append(updates, u)
		serial += d
	}
	agg := g.Clone()
	begin := now()
	fed.Aggregate(agg, updates)
	t.time("fed.aggregate_ms", time.Millisecond, begin)
	begin = now()
	eval.EvaluateSubset(agg, env.Profile, env.Test, env.Cfg.EvalSubset)
	t.time("eval.replay_ms", time.Millisecond, begin)
	return serial
}

// replayFlux is one FLUX participant's round (internal/flux Runner.Round):
// quantized profiling, role assignment, merge plan and customization, local
// fine-tuning, SPSA probes for exploration experts, update extraction.
func (t *tracer) replayFlux(g *moe.Model, i, r int, eps float64) (fed.Update, time.Duration) {
	env, cfg := t.env, g.Cfg
	rng := t.rng.Split(fmt.Sprintf("p%d/r%d", i, r))
	var work time.Duration

	begin := now()
	t.qbuf = g.CloneInto(t.qbuf)
	moe.Quantize(t.qbuf, quant.Bits4)
	work += t.time("quant.quantize_ms", time.Millisecond, begin)

	batch := env.Batch(i, r)
	begin = now()
	prof := profile.Profiler{Bits: quant.Bits4, TrackSamples: true}.RunOn(t.qbuf, cfg, batch, t.ws)
	work += t.time("profile.run_ms", time.Millisecond, begin)

	capacity, tune := env.Budgets(i)
	table := assign.NewUtilityTable(prof.Stats)
	begin = now()
	a := assign.Assign(table, cfg.ExpertsPerLayer, tune, eps, rng.Split("assign"))
	work += t.time("assign.select_us", time.Microsecond, begin)
	tuning := a.Tuning(cfg.Layers())

	nonBudget := max(capacity-len(a.Exploit), cfg.Layers())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin = now()
	plan, err := merge.BuildPlan(g, prof.Stats, tuning, nonBudget, merge.DefaultOptions(), rng.Split("merge"))
	work += t.time("merge.plan_ms", time.Millisecond, begin)
	if err != nil {
		panic(fmt.Sprintf("merge plan: %v", err)) // the engine treats this as a programming error too
	}
	begin = now()
	local, err := moe.Customize(g, plan.Specs)
	work += t.time("merge.customize_ms", time.Millisecond, begin)
	if err != nil {
		panic(fmt.Sprintf("customize: %v", err))
	}
	runtime.ReadMemStats(&after)
	t.add("merge.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)

	work += t.fineTune(local, batch)

	if len(a.Explore) > 0 {
		seq, mask := batch[0].FullSequence()
		begin = now()
		assign.ProbeExploreSPSA(local, t.ws, a.Explore, [][]int{seq}, [][]bool{mask}, 1, 0.02, func(k assign.Key) *tensor.RNG {
			return rng.Split(fmt.Sprintf("e%d.%d", k.Layer, k.Expert))
		})
		work += t.time("assign.spsa_ms", time.Millisecond, begin)
	}

	begin = now()
	u := fed.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
	work += t.time("fed.extract_ms", time.Millisecond, begin)
	return u, work
}

// replayFull is one full-model participant's round (FMD): over TCP the
// participant decodes the broadcast model, trains every expert, and
// extracts all of them.
func (t *tracer) replayFull(g *moe.Model, blob []byte, i, r int) (fed.Update, time.Duration) {
	var work time.Duration
	local := g.Clone()
	if blob != nil {
		begin := now()
		m, err := moe.DecodeBytes(blob)
		work += t.time("wire.decode_ms", time.Millisecond, begin)
		if err != nil {
			panic(fmt.Sprintf("decode global model: %v", err)) // bytes just encoded from a valid model
		}
		local = m
	}
	work += t.fineTune(local, t.env.Batch(i, r))
	begin := now()
	u := fed.ExtractUpdate(local, i, float64(len(t.env.Shards[i])), fed.IdentityTuning(local.Cfg))
	work += t.time("fed.extract_ms", time.Millisecond, begin)
	return u, work
}

// fineTune runs the local SGD passes over batch, timing each
// ForwardBackwardWS call, then one ForwardWS per sequence. It returns the
// training time (the forward passes are extra probes, not round work).
func (t *tracer) fineTune(local *moe.Model, batch []*flux.Sample) time.Duration {
	var work time.Duration
	grads := moe.NewGrads(local, false)
	for it := 0; it < t.env.Cfg.LocalIters; it++ {
		for _, s := range batch {
			seq, mask := s.FullSequence()
			begin := now()
			local.ForwardBackwardWS(t.ws, seq, mask, grads, nil, -1)
			work += t.time("moe.fwdbwd_ms_per_seq", time.Millisecond, begin)
		}
		local.ApplySGD(grads, t.env.Cfg.LR/float64(len(batch)))
	}
	for _, s := range batch {
		seq, _ := s.FullSequence()
		begin := now()
		local.ForwardWS(t.ws, seq, nil, -1)
		t.time("moe.forward_ms_per_seq", time.Millisecond, begin)
	}
	return work
}

// tracedRun is the per-layer measurement (--trace 1). In one fresh process
// it times a cold base-model build and the environment set-up, runs the
// workload's experiment untraced, then runs it again through the tracer.
// The two score curves must be bit-identical, and on every traced round the
// inner Round plus the evaluation gap must cover at least 95% of the round's
// wall time outside the replay.
func tracedRun(ctx context.Context, w workload, seed int, rep *report) error {
	target, err := w.target()
	if err != nil {
		return err
	}
	fed.ResetBaseModelCache()
	begin := now()
	if _, err := flux.BaseModel("llama", 0); err != nil {
		return err
	}
	pretrain := since(begin)

	begin = now()
	e, err := w.experiment(subSeed(seed, 0), nil, nil)
	if err != nil {
		return err
	}
	if _, err := e.Describe(); err != nil {
		return err
	}
	envSetup := since(begin)
	async := e.Config().Aggregation.Active()
	timed := runExperiment(ctx, e)
	if timed.err != nil {
		return fmt.Errorf("untraced run: %w", timed.err)
	}

	tr := newTracer(w)
	e, err = w.experiment(subSeed(seed, 0), tr.wrap, tr.onEvent)
	if err != nil {
		return err
	}
	traced := runExperiment(ctx, e)
	if traced.err != nil {
		return fmt.Errorf("traced run: %w", traced.err)
	}

	rep.attempted = 2 * w.rounds
	ok := recordChecks(rep, w.rounds, async, timed, nil)
	if !recordChecks(rep, w.rounds, async, traced, timed.events) || !ok {
		rep.failed = rep.attempted
	}
	missed := 0
	if firstAtTarget(timed.events, target) < 0 {
		missed = rep.attempted - rep.failed
	}

	var timedSecs []float64
	for r := 1; r < len(timed.events); r++ {
		timedSecs = append(timedSecs, (timed.events[r].Elapsed - timed.events[r-1].Elapsed).Seconds())
	}
	var roundMs, evalMs, share, spanSum []float64
	coverage := 1.0
	for r, s := range tr.spans {
		outside := s.wall - s.replay
		c := float64(s.round+s.eval) / float64(outside)
		if c < 0.95 {
			rep.problem("round %d: Round + eval cover %.1f%% of its wall time outside the replay", r+1, 100*c)
		}
		coverage = min(coverage, c)
		roundMs = append(roundMs, ms(s.round))
		evalMs = append(evalMs, ms(s.eval))
		share = append(share, float64(s.eval)/float64(outside))
		spanSum = append(spanSum, (s.round + s.eval).Seconds())
	}

	rep.add("setup.pretrain_s", "s", pretrain.Seconds(), 1)
	rep.add("setup.env_s", "s", envSetup.Seconds(), 1)
	rep.add("fed.round_ms", "ms", median(roundMs), len(roundMs))
	tr.report(rep, "fed.pool_efficiency", "ratio")
	tr.report(rep, "fed.extract_ms", "ms")
	tr.report(rep, "fed.aggregate_ms", "ms")
	addEventLayers(rep, traced.events, async)
	rep.add("eval.ms", "ms", median(evalMs), len(evalMs))
	tr.report(rep, "eval.replay_ms", "ms")
	rep.add("eval.share", "ratio", median(share), len(share))
	for _, name := range []string{
		"moe.fwdbwd_ms_per_seq", "moe.forward_ms_per_seq", "quant.quantize_ms", "profile.run_ms",
		"merge.plan_ms", "merge.customize_ms",
	} {
		tr.report(rep, name, "ms")
	}
	tr.report(rep, "merge.alloc_mb", "MB")
	tr.report(rep, "assign.select_us", "us")
	tr.report(rep, "assign.spsa_ms", "ms")
	tr.report(rep, "wire.encode_ms", "ms")
	tr.report(rep, "wire.decode_ms", "ms")
	rep.add("trace.coverage_min", "ratio", coverage, len(tr.spans))
	rep.add("trace.overhead_frac", "ratio", ratio(median(spanSum), median(timedSecs))-1, len(spanSum))
	addConvergence(rep, timed.events, target)
	rep.add("round_fail_frac", "ratio", ratio(float64(rep.failed+missed), float64(rep.attempted)), 2)
	fmt.Printf("workload %s seed %d: traced %d rounds, replayed %d\n", w.name, seed, len(tr.spans), len(tr.samples["fed.aggregate_ms"]))
	return nil
}

// report records the median of a replay-timed layer metric; a layer the
// workload never exercises reports 0 with no samples.
func (t *tracer) report(rep *report, name, unit string) {
	xs := t.samples[name]
	rep.add(name, unit, median(xs), len(xs))
}

// addEventLayers records the per-layer metrics read off the round events:
// aggregation and async-core counts, wire bytes, and the mean simulated
// seconds per round of each phase. Async-core metrics are idle (no samples)
// under synchronous aggregation, phase metrics on transports that do not
// model simulated time.
func addEventLayers(rep *report, events []flux.RoundEvent, async bool) {
	var touched []float64
	var stale, completed, pending, up, down float64
	phases := map[string][]float64{}
	names := []string{"profiling", "merging", "assignment", "fine-tuning", "communication", "straggler-wait"}
	rounds := events[1:]
	for _, ev := range rounds {
		touched = append(touched, float64(ev.ExpertsTouched))
		stale += float64(ev.Stale)
		completed += float64(ev.Completed)
		pending += float64(ev.Pending)
		up += ev.UplinkBytes
		down += ev.DownlinkBytes
		if ev.Phases == nil {
			continue
		}
		for _, p := range names {
			phases[p] = append(phases[p], ev.Phases[p])
		}
	}
	n := float64(len(rounds))
	asyncN := 0
	if async {
		asyncN = len(rounds)
	}
	rep.add("fed.experts_touched", "count", median(touched), len(touched))
	rep.add("fed.stale_frac", "ratio", ratio(stale, completed), asyncN)
	rep.add("fed.pending_mean", "count", ratio(pending, n), asyncN)
	rep.add("fed.flushes_per_round", "count", ratio(float64(rounds[len(rounds)-1].ModelVersion), n), asyncN)
	rep.add("wire.up_mb_per_round", "MB", ratio(up, n)/1e6, len(rounds))
	rep.add("wire.down_mb_per_round", "MB", ratio(down, n)/1e6, len(rounds))
	for _, p := range names {
		rep.add("sim."+p+"_s", "s", mean(phases[p]), len(phases[p]))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
