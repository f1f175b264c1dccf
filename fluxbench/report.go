package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// spec names one reported metric. BENCHMARK.json lists the same names and
// units: endToEnd is the gated set a timed run (--trace 0) reports, perLayer
// the set a traced run (--trace 1) reports.
type spec struct {
	name, unit string
}

var endToEnd = []spec{
	{"setup_s", "s"},
	{"round_s_p50", "s"},
	{"round_s_p90", "s"},
	{"comm_mb_per_round", "MB"},
	{"peak_rss_mb", "MB"},
}

// convergence metrics are exact functions of (code, seed): across seeds the
// round that first reaches the target ranges from 0 to past the budget, so
// no regression bound can hold on them. Timed runs print them; traced runs
// report them ungated.
var convergence = []spec{
	{"rounds_to_target", "count"},
	{"sim_h_to_target", "h"},
	{"wall_to_target_s", "s"},
	{"final_score", "score"},
	{"round_fail_frac", "ratio"},
}

var perLayer = append([]spec{
	{"setup.pretrain_s", "s"},
	{"setup.env_s", "s"},
	{"fed.round_ms", "ms"},
	{"fed.pool_efficiency", "ratio"},
	{"fed.extract_ms", "ms"},
	{"fed.aggregate_ms", "ms"},
	{"fed.experts_touched", "count"},
	{"fed.stale_frac", "ratio"},
	{"fed.pending_mean", "count"},
	{"fed.flushes_per_round", "count"},
	{"eval.ms", "ms"},
	{"eval.replay_ms", "ms"},
	{"eval.share", "ratio"},
	{"moe.fwdbwd_ms_per_seq", "ms"},
	{"moe.forward_ms_per_seq", "ms"},
	{"quant.quantize_ms", "ms"},
	{"profile.run_ms", "ms"},
	{"merge.plan_ms", "ms"},
	{"merge.customize_ms", "ms"},
	{"merge.alloc_mb", "MB"},
	{"assign.select_us", "us"},
	{"assign.spsa_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"wire.up_mb_per_round", "MB"},
	{"wire.down_mb_per_round", "MB"},
	{"sim.profiling_s", "s"},
	{"sim.merging_s", "s"},
	{"sim.assignment_s", "s"},
	{"sim.fine-tuning_s", "s"},
	{"sim.communication_s", "s"},
	{"sim.straggler-wait_s", "s"},
	{"trace.coverage_min", "ratio"},
	{"trace.overhead_frac", "ratio"},
}, convergence...)

// hostBound reports whether a metric is a host timing: comparable only
// between results measured on the same host. Simulated seconds (sim.*,
// sim_h_to_target), counts, bytes and scores compare across hosts.
func hostBound(name, unit string) bool {
	if strings.HasPrefix(name, "sim.") {
		return false
	}
	switch unit {
	case "s", "ms", "us":
		return true
	}
	switch name {
	case "fed.pool_efficiency", "eval.share", "trace.coverage_min", "trace.overhead_frac":
		return true // ratios of host timings
	}
	return false
}

// row is one measured metric with its sample count.
type row struct {
	name, unit string
	value      float64
	n          int
}

// report accumulates one run's metrics, output-check failures, and the
// attempted/failed round counts.
type report struct {
	rows      []row
	problems  []string
	attempted int
	failed    int
}

// add records a metric; a non-finite value (a ratio over an empty span) is
// an output-check failure, reported as 0.
func (r *report) add(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is %v", name, v)
		v = 0
	}
	r.rows = append(r.rows, row{name: name, unit: unit, value: v, n: n})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) lookup(name string) (row, bool) {
	for _, x := range r.rows {
		if x.name == name {
			return x, true
		}
	}
	return row{}, false
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints the human-readable table (every recorded metric with its
// unit and sample count, gated or not), the output-check failures, and
// finally the result line restricted to the metrics in gated.
func (r *report) write(w io.Writer, gated []spec) error {
	fmt.Fprintf(w, "%-26s %16s  %-6s %6s\n", "metric", "value", "unit", "n")
	for _, x := range r.rows {
		note := ""
		if x.n == 0 {
			note = "  (no samples)"
		}
		fmt.Fprintf(w, "%-26s %16.6g  %-6s %6d%s\n", x.name, x.value, x.unit, x.n, note)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(gated)),
	}
	for _, s := range gated {
		x, ok := r.lookup(s.name)
		if !ok || x.unit != s.unit {
			return fmt.Errorf("metric %s [%s] was not measured", s.name, s.unit)
		}
		res.Metrics[s.name] = metric{Value: x.value, Unit: x.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
