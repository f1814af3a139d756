package experiments

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"impress/internal/errs"

	"impress/internal/sim"
	"impress/internal/trace"
)

// tinyScale keeps simulation-backed experiment tests fast.
func tinyScale() Scale {
	return Scale{Name: "tiny", Warmup: 5_000, Run: 25_000,
		Workloads: []string{"gcc", "copy"}}
}

// workloads resolves r's scale, failing the test on an error.
func workloads(t testing.TB, r *Runner) []trace.Workload {
	t.Helper()
	ws, err := r.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// build assembles the registered experiment id through r, failing the
// test on an error.
func build(t testing.TB, id string, r *Runner) *Table {
	t.Helper()
	for _, d := range Definitions() {
		if d.ID == id {
			tab, err := d.Build(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			return tab
		}
	}
	t.Fatalf("no experiment %q", id)
	return nil
}

func cell(t *Table, row, col int) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(t.Rows[row][col], "%"), 64)
	if err != nil {
		panic(err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyticalTablesNonEmpty(t *testing.T) {
	n := 0
	for _, d := range Definitions() {
		if !d.Analytical {
			continue
		}
		n++
		tab := build(t, d.ID, NewRunner(tinyScale()))
		if tab.ID != d.ID || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("experiment %q is empty (built %q)", d.ID, tab.ID)
		}
	}
	if n < 17 {
		t.Fatalf("only %d analytical experiments registered", n)
	}
}

func TestFigure4Anchor(t *testing.T) {
	tab := Figure4()
	// Find tMRO = 186 and check the paper's 0.62 anchor.
	for _, row := range tab.Rows {
		if row[0] == "186" {
			v, _ := strconv.ParseFloat(row[1], 64)
			if math.Abs(v-0.62) > 0.005 {
				t.Fatalf("T*(186ns) = %v, want 0.62", v)
			}
			return
		}
	}
	t.Fatal("tMRO=186 row missing")
}

func TestFigure12MatchesPaper(t *testing.T) {
	tab := Figure12()
	want := map[string]float64{"7": 1.0, "6": 0.985, "5": 0.970, "4": 0.941, "0": 0.5}
	for _, row := range tab.Rows {
		if expect, ok := want[row[0]]; ok {
			v, _ := strconv.ParseFloat(row[1], 64)
			if math.Abs(v-expect) > 0.002 {
				t.Fatalf("b=%s: %v, want %v", row[0], v, expect)
			}
		}
	}
}

func TestEquation5Table(t *testing.T) {
	tab := build(t, "eq5", nil)
	for _, row := range tab.Rows {
		ratio, _ := strconv.ParseFloat(row[3], 64)
		want, _ := strconv.ParseFloat(row[4], 64)
		if math.Abs(ratio-want)/want > 0.08 {
			t.Fatalf("alpha=%s: measured ratio %v vs Eq.5 %v", row[0], ratio, want)
		}
	}
}

func TestFigure18FlatInK(t *testing.T) {
	tab := build(t, "fig18", nil)
	// Analytic columns are exactly flat.
	for col := 1; col <= 3; col++ {
		first := cell(tab, 0, col)
		for r := range tab.Rows {
			if math.Abs(cell(tab, r, col)-first) > 1e-9 {
				t.Fatalf("analytic column %d not flat", col)
			}
		}
	}
	// Measured column flat within 15%.
	first := cell(tab, 0, 4)
	for r := range tab.Rows {
		if math.Abs(cell(tab, r, 4)-first)/first > 0.15 {
			t.Fatalf("measured slowdown not flat: row %d %v vs %v", r, cell(tab, r, 4), first)
		}
	}
}

func TestFigure19Shape(t *testing.T) {
	tab := Figure19()
	// 4.76% at K=0, TRH=4000 (paper text).
	if v := cell(tab, 0, 3); math.Abs(v-4.76) > 0.01 {
		t.Fatalf("PARA K=0 slowdown %v%%, want 4.76%%", v)
	}
	// Monotone non-increasing in K for every threshold.
	for col := 1; col <= 3; col++ {
		prev := math.Inf(1)
		for r := range tab.Rows {
			v := cell(tab, r, col)
			if v > prev+1e-9 {
				t.Fatalf("column %d increases at row %d", col, r)
			}
			prev = v
		}
	}
}

func TestStorageTableAnchors(t *testing.T) {
	tab := StorageTable()
	byKey := map[string][]string{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	if byKey["graphene/no-rp"][2] != "448" {
		t.Fatalf("graphene baseline entries %s", byKey["graphene/no-rp"][2])
	}
	if byKey["mithril/no-rp"][2] != "383" {
		t.Fatalf("mithril baseline entries %s", byKey["mithril/no-rp"][2])
	}
	if v, _ := strconv.ParseFloat(byKey["graphene/express"][5], 64); math.Abs(v-2.0) > 0.01 {
		t.Fatalf("graphene ExPress storage ratio %v", v)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(tinyScale())
	spec := baselineSpec(workloads(t, r)[0])
	a, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.WeightedIPCSum != b.WeightedIPCSum {
		t.Fatal("memoized run differs")
	}
	if n := len(r.runs.m); n != 1 {
		t.Fatalf("cache has %d entries, want 1", n)
	}
	if r.Sims() != 1 {
		t.Fatalf("simulated %d times, want 1", r.Sims())
	}
}

func TestRunnerWorkloadFilter(t *testing.T) {
	r := NewRunner(tinyScale())
	ws := workloads(t, r)
	if len(ws) != 2 {
		t.Fatalf("filtered workloads = %d, want 2", len(ws))
	}
	if n := len(workloads(t, NewRunner(FullScale()))); n != 20 {
		t.Fatalf("full workloads = %d, want 20", n)
	}
}

func TestRunnerWorkloadsResolveSpecs(t *testing.T) {
	r := NewRunner(Scale{Name: "custom", Warmup: 1, Run: 1,
		Workloads: []string{"copy", "gcc", "mix:gcc,attack:hammer"}})
	ws := workloads(t, r)
	if len(ws) != 3 {
		t.Fatalf("resolved %d workloads, want 3", len(ws))
	}
	// Built-ins keep figure order (gcc is SPEC, copy STREAM); spec
	// entries append after them.
	if ws[0].Name != "gcc" || ws[1].Name != "copy" || ws[2].Name != "mix:gcc,attack:hammer" {
		t.Fatalf("wrong order: %s, %s, %s", ws[0].Name, ws[1].Name, ws[2].Name)
	}
	if ws[2].NewGenerator(1, 1).Next().Gap < 0 {
		t.Fatal("resolved mix generator unusable")
	}
}

func TestRunnerWorkloadsUnknownSpecErrors(t *testing.T) {
	r := NewRunner(Scale{Name: "typo", Warmup: 1, Run: 1, Workloads: []string{"gcc", "bogus"}})
	ws, err := r.Workloads()
	if !errors.Is(err, errs.ErrUnknownWorkload) || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("a scale naming an unknown workload must fail with ErrUnknownWorkload, not shrink figures silently: %v", err)
	}
	if ws != nil {
		t.Fatalf("failed resolution returned %d workloads", len(ws))
	}
}

func TestFigure3ShapeTiny(t *testing.T) {
	tab := build(t, "fig3", NewRunner(tinyScale()))
	// Last two rows are the geomeans; STREAM at tMRO=36 must be below
	// SPEC at tMRO=36 (the paper's central Fig. 3 contrast).
	n := len(tab.Rows)
	specAt36 := cell(tab, n-2, 1)
	streamAt36 := cell(tab, n-1, 1)
	if streamAt36 >= specAt36 {
		t.Fatalf("STREAM (%v) should suffer more than SPEC (%v) at tMRO=36", streamAt36, specAt36)
	}
	if streamAt36 > 0.97 {
		t.Fatalf("STREAM at tMRO=36 shows no slowdown: %v", streamAt36)
	}
}

func TestFigure13ImpressPNearBaseline(t *testing.T) {
	tab := build(t, "fig13", NewRunner(tinyScale()))
	n := len(tab.Rows)
	// Columns 3 and 6 are graphene/impress-p and para/impress-p geomeans.
	for _, col := range []int{3, 6} {
		for _, rowIdx := range []int{n - 2, n - 1} {
			v := cell(tab, rowIdx, col)
			if v < 0.93 || v > 1.07 {
				t.Fatalf("ImPress-P geomean %v at (%d,%d); must track No-RP", v, rowIdx, col)
			}
		}
	}
}

func TestGeoMeanBy(t *testing.T) {
	ws := []trace.Workload{
		{Name: "a", Stream: false}, {Name: "b", Stream: true},
	}
	spec, stream := geoMeanBy(ws, map[string]float64{"a": 2, "b": 8})
	if math.Abs(spec-2) > 1e-9 || math.Abs(stream-8) > 1e-9 {
		t.Fatalf("geoMeanBy = %v, %v", spec, stream)
	}
}

func TestRunSpecKeyDistinguishes(t *testing.T) {
	r := NewRunner(tinyScale())
	w, _ := trace.WorkloadByName("gcc")
	a := RunSpec{Workload: w, Tracker: sim.TrackerGraphene, DesignTRH: TRH(4000)}
	b := RunSpec{Workload: w, Tracker: sim.TrackerGraphene, DesignTRH: TRH(2000)}
	if r.storeSpec(a).Key() == r.storeSpec(b).Key() {
		t.Fatal("different TRH must produce different cache keys")
	}
}

func TestRunSpecExplicitZeroDistinctFromDefault(t *testing.T) {
	r := NewRunner(tinyScale())
	w, _ := trace.WorkloadByName("gcc")
	unset := RunSpec{Workload: w, Tracker: sim.TrackerGraphene}
	zero := RunSpec{Workload: w, Tracker: sim.TrackerGraphene, DesignTRH: TRH(0)}
	if r.storeSpec(unset).Key() == r.storeSpec(zero).Key() {
		t.Fatal("an explicit TRH of 0 must not alias the default")
	}
	if unset.RFMTH.Set || zero.RFMTH.Set {
		t.Fatal("zero-value override must read as unset")
	}
	// And the materialized configs differ accordingly.
	scale := tinyScale()
	if got := unset.config(scale).DesignTRH; got != 4000 {
		t.Fatalf("unset TRH should keep the sim default 4000, got %v", got)
	}
	if got := zero.config(scale).DesignTRH; got != 0 {
		t.Fatalf("explicit TRH(0) should carry through, got %v", got)
	}
	rfm := RunSpec{Workload: w, Tracker: sim.TrackerGraphene, RFMTH: RFM(0)}
	if got := rfm.config(scale).RFMTH; got != 0 {
		t.Fatalf("explicit RFM(0) should carry through, got %v", got)
	}
}
