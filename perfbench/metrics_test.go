package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists the
// program prints in step with BENCHMARK.json.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, bench.EndToEnd)
	compare("per_layer", perLayer, bench.PerLayer)
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("invalid metric %q unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []string{"", "-lead", "has space", "slash/no", "x" + strings.Repeat("y", 64), "ünï"} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"wall_s", "table.ablation-rfm_s", "setup.compress_flate.self_share", "9lives"} {
		if !nameRE.MatchString(good) {
			t.Errorf("name %q rejected", good)
		}
	}
}

var testDefs = []metricDef{{"a_s", "s"}, {"b.count", "count"}}

func TestReportCountsFailures(t *testing.T) {
	var log bytes.Buffer
	r := newReport(&log)
	r.check(true, "first")
	r.check(false, "second: %d", 2)
	r.check(true, "third")
	r.set("a_s", 1.25)
	r.set("b.count", 0.0/zero()) // NaN from an empty base reads 0
	var out bytes.Buffer
	if err := r.write(&out, testDefs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct || res.Attempted != 3 || res.Failed != 1 {
		t.Errorf("got correct=%v attempted=%d failed=%d, want false 3 1", res.Correct, res.Attempted, res.Failed)
	}
	if res.Metrics["a_s"] != (jsonMetric{1.25, "s"}) || res.Metrics["b.count"] != (jsonMetric{0, "count"}) {
		t.Errorf("metrics %v", res.Metrics)
	}
	if !strings.Contains(log.String(), "FAILED: second: 2") || strings.Contains(log.String(), "first") {
		t.Errorf("failure log %q", log.String())
	}
}

func zero() float64 { return 0 }

func TestReportRefusesIncompleteResults(t *testing.T) {
	r := newReport(&bytes.Buffer{})
	r.set("a_s", 1)
	r.set("b.count", 2)
	if err := r.write(&bytes.Buffer{}, testDefs); err == nil {
		t.Error("a run that attempted nothing printed a result")
	}
	r.check(true, "op")
	missing := newReport(&bytes.Buffer{})
	missing.check(true, "op")
	missing.set("a_s", 1)
	extra := newReport(&bytes.Buffer{})
	extra.check(true, "op")
	extra.set("a_s", 1)
	extra.set("b.count", 2)
	extra.set("c", 3)
	for name, rep := range map[string]*report{"missing": missing, "extra": extra} {
		var out bytes.Buffer
		if err := rep.write(&out, testDefs); err == nil || out.Len() > 0 {
			t.Errorf("%s metric: err=%v, printed %q", name, err, out.String())
		}
	}
	if err := r.write(&bytes.Buffer{}, testDefs); err != nil {
		t.Errorf("complete result refused: %v", err)
	}
}
