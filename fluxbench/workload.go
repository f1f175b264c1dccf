package main

import (
	"fmt"

	flux "repro"
	"repro/internal/data"
)

// Seeds recorded for the benchmark: DefaultSeed is used when --seed is not
// given; HeldOutSeed is kept out of tuning, so a later performance claim
// can be checked on a seed it was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 1009
)

// minTimedRounds is the fewest rounds a timed run measures, so that at least
// ten round times lie beyond round_s_p90.
const minTimedRounds = 100

// workload is one closed-loop federated run driven through the public SDK:
// round r+1 starts only after round r's evaluation.
type workload struct {
	name string
	// rounds is the round budget. FLUX builds its ε schedule from it
	// (assign.DefaultDynamicEpsilon(rounds)), so changing it changes the
	// convergence curve, not just the run length; it stays fixed.
	rounds  int
	dataset string
	method  string
	// tcp selects the loopback TCP transport; otherwise rounds run
	// in-process on GOMAXPROCS workers.
	tcp bool
	// options are the workload's settings on top of the SDK defaults
	// (llama, 700 pretrain steps, batch 6, 2 local iterations, eval subset
	// 16, dataset 300).
	options []flux.Option
}

var workloads = []workload{
	{
		// The event-driven server core (flushes, staleness discount,
		// carry-over) and cohort selection run every round, and so do all
		// FLUX layers (quant, profile, assign, merge) for the six selected
		// participants. Dolly's longer sequences push cost toward attention
		// and greedy-generation evaluation. The fleet, its selection seed
		// included, is part of the workload: which devices join each round
		// sets most of a round's cost, so varying it with the workload seed
		// made round times differ by up to 15% between seeds.
		name:    "flux-fleet-async",
		rounds:  50,
		dataset: "dolly",
		method:  "flux",
		options: []flux.Option{
			flux.WithParticipants(12),
			flux.WithFleet(flux.FleetSpec{
				Distribution: "longtail",
				Selector:     flux.SelectorSpec{Policy: "uniform", K: 6},
				Seed:         "fleet",
			}),
			flux.WithAggregation(flux.AggregationSpec{Mode: flux.AggAsync, BufferK: 4, StalenessAlpha: 0.5}),
		},
	},
	{
		// Each round gob-encodes and broadcasts the full model over real
		// sockets and aggregates full-model updates; the FLUX-only layers
		// are idle and multiple-choice evaluation is cheap, so wire and
		// full-model aggregation changes show here and nowhere else.
		name:    "fmd-tcp",
		rounds:  50,
		dataset: "piqa",
		method:  "fmd",
		tcp:     true,
		options: []flux.Option{flux.WithParticipants(2)},
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// target is the dataset profile's time-to-accuracy threshold.
func (w workload) target() (float64, error) {
	p, err := data.ProfileByName(w.dataset)
	if err != nil {
		return 0, err
	}
	return p.TargetAcc, nil
}

// subSeed names the j-th experiment of a run with workload seed seed. A
// timed run pools several experiments, each on its own sub-seed, so its
// round times average over more than one dataset and cohort sequence.
func subSeed(seed, j int) string { return fmt.Sprintf("%d.%d", seed, j) }

// experiment builds one experiment of the workload. The seed names the
// experiment, so it fixes dataset synthesis, partition, and the training
// random streams. A TCP transport is single-shot, so
// every experiment gets a fresh one; wrap, when non-nil, decorates the
// transport (the traced run's instrumentation).
func (w workload) experiment(seed string, wrap func(flux.Transport) flux.Transport, handler flux.EventHandler) (*flux.Experiment, error) {
	tr := flux.InProcess()
	if w.tcp {
		tr = flux.TCP()
	}
	if wrap != nil {
		tr = wrap(tr)
	}
	opts := append([]flux.Option{
		flux.WithMethod(w.method),
		flux.WithDataset(w.dataset),
		flux.WithRounds(w.rounds),
		flux.WithSeed(w.name + "/" + seed),
		flux.WithTransport(tr),
		flux.WithRoundEvents(handler),
	}, w.options...)
	return flux.New(opts...)
}
