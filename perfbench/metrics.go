package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one metric the benchmark prints. The two lists
// below mirror BENCHMARK.json (a test keeps them equal): the untraced
// run prints exactly endToEnd, the traced run exactly perLayer.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_m", "M"},
	{"max_rss_mb", "MB"},
}

// profiledLayers are the packages whose self-time share the traced run
// reports; every other leaf frame counts as "other".
var profiledLayers = []string{
	"memctrl", "dram", "core", "trackers", "cpu", "cache", "trace", "sim",
	"runtime", "experiments", "security", "resultstore", "encoding_json",
	"other",
}

// tableIDs are the 24 experiments a sweep renders, in render order.
var tableIDs = []string{
	"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"eq5", "fig12", "fig13", "table3", "fig14", "energy", "fig15", "fig16",
	"fig18", "fig19", "storage", "security", "prac", "dsac", "ablation-rfm",
	"attackzoo",
}

// goldenIDs are the tables whose rendering does not depend on the
// experiment scale, so the sweep at benchmark scale must reproduce the
// repository's golden files byte for byte.
var goldenIDs = []string{
	"table1", "table2", "table3", "fig4", "fig6", "fig7", "fig8", "fig12",
	"fig18", "fig19", "eq5", "storage", "security", "prac", "dsac",
	"ablation-rfm", "attackzoo",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{{"profile.samples", "count"}}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".self_share", "fraction"})
	}
	defs = append(defs,
		metricDef{"memctrl.host_ns_per_req", "ns"},
		metricDef{"memctrl.reads", "count"},
		metricDef{"memctrl.writes", "count"},
		metricDef{"memctrl.row_hits", "count"},
		metricDef{"memctrl.row_conflicts", "count"},
		metricDef{"memctrl.read_latency_ticks", "ticks"},
		metricDef{"dram.refreshes", "count"},
		metricDef{"core.forced_closures", "count"},
		metricDef{"trackers.host_ns_per_act", "ns"},
		metricDef{"trackers.demand_acts", "count"},
		metricDef{"trackers.mitigative_acts", "count"},
		metricDef{"trackers.mitigations", "count"},
		metricDef{"cpu.host_ns_per_instr", "ns"},
		metricDef{"cpu.instructions", "count"},
		metricDef{"cpu.weighted_ipc", "ipc"},
		metricDef{"cache.llc_hit_rate", "fraction"},
		metricDef{"trace.next_calls", "count"},
		metricDef{"trace.next_ns", "ns"},
		metricDef{"sim.cycles", "count"},
		metricDef{"sim.host_ns_per_cycle", "ns"},
		metricDef{"sim.minstr_per_s", "Minstr/s"},
		metricDef{"sims", "count"},
	)
	for _, id := range tableIDs {
		defs = append(defs, metricDef{"table." + id + "_s", "s"})
	}
	return append(defs,
		metricDef{"resultstore.hits", "count"},
		metricDef{"resultstore.attack_hits", "count"},
		metricDef{"resultstore.hit_ms_p50", "ms"},
		metricDef{"resultstore.hit_ms_hi", "ms"},
		metricDef{"resultstore.hit_ms_hi_pct", "%"},
		metricDef{"resultstore.hit_ms_n", "count"},
		metricDef{"setup.profile.samples", "count"},
		metricDef{"setup.compress_flate.self_share", "fraction"},
		metricDef{"setup.resultstore.self_share", "fraction"},
		metricDef{"setup.sims", "count"},
		metricDef{"setup.attack_evals", "count"},
		metricDef{"setup.spec_s_p50", "s"},
		metricDef{"setup.spec_s_hi", "s"},
		metricDef{"setup.spec_s_hi_pct", "%"},
		metricDef{"setup.spec_s_n", "count"},
		metricDef{"store.files", "count"},
		metricDef{"store_mb", "MB"},
		metricDef{"tracing.untraced_wall_s", "s"},
		metricDef{"tracing.traced_wall_s", "s"},
		metricDef{"tracing.overhead_pct", "%"},
		metricDef{"tracing.gen_overhead_pct", "%"},
	)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// report collects one run's metrics and its operation checks.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	log       io.Writer // failed checks are described here
}

func newReport(log io.Writer) *report {
	return &report{values: map[string]float64{}, log: log}
}

// set records a metric value; ratios over an empty base arrive as NaN
// or Inf and are stored as 0 (the workload did not exercise the layer).
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// check counts one attempted operation, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "FAILED: "+format+"\n", args...)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints every declared metric as a "name value unit" line and
// then the result as one JSON object on the last line. It refuses to
// print a result that lacks a declared metric, carries an undeclared
// one, or attempted nothing.
func (r *report) write(w io.Writer, defs []metricDef) error {
	if r.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	declared := map[string]bool{}
	res := jsonResult{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{},
	}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			return fmt.Errorf("invalid metric %q (unit %q)", d.name, d.unit)
		}
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		declared[d.name] = true
		res.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	var extra []string
	for name := range r.values {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %v", extra)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", d.name, r.values[d.name], d.unit)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.attempted, r.failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
