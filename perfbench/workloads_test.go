package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"impress"
)

type fakeGen interface {
	Name() string
	Next() int
}

type counter struct{ n int }

func (c *counter) Name() string { return "count" }
func (c *counter) Next() int    { c.n++; return c.n }

func TestTimeGenerators(t *testing.T) {
	var tm nextTimer
	newGen := timeGenerators(func(core int, seed uint64) fakeGen { return &counter{n: core * 100} }, &tm)
	g0, g1 := newGen(0, 1), newGen(1, 1)
	if g0.Next() != 1 || g0.Next() != 2 || g1.Next() != 101 || g0.Name() != "count" {
		t.Error("wrapped generators do not pass requests through")
	}
	if tm.calls != 3 || tm.ns <= 0 {
		t.Errorf("timer saw %d calls, %d ns; want 3 calls", tm.calls, tm.ns)
	}
}

func TestTablesMatch(t *testing.T) {
	tab := func(id, row string) *impress.ExperimentTable {
		return &impress.ExperimentTable{ID: id, Title: "t", Header: []string{"h"}, Rows: [][]string{{row}}}
	}
	cold := render([]*impress.ExperimentTable{tab("a", "1"), tab("b", "2")})
	if err := tablesMatch(render([]*impress.ExperimentTable{tab("a", "1"), tab("b", "2")}), cold); err != nil {
		t.Errorf("identical sweeps differ: %v", err)
	}
	for name, got := range map[string][]*impress.ExperimentTable{
		"changed cell": {tab("a", "1"), tab("b", "3")},
		"reordered":    {tab("b", "2"), tab("a", "1")},
		"missing":      {tab("a", "1")},
	} {
		if err := tablesMatch(render(got), cold); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Golden comparison ignores tables the golden set does not name.
	golden := map[string][]byte{"a": cold["a"]}
	if err := tablesMatch(render([]*impress.ExperimentTable{tab("a", "1"), tab("c", "9")}), golden); err != nil {
		t.Errorf("golden subset: %v", err)
	}
}

// TestSimWorkloadEndToEnd runs the smallest workload for one second and
// checks the printed result.
func TestSimWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	t.Chdir(t.TempDir())
	var out, errs bytes.Buffer
	code := run(context.Background(), []string{"--workload", "sim-gcc", "--seed", "7", "--seconds", "1"}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < simSetups+3 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "sim-gcc", "--seconds", "0"},
		{"--workload", "sim-gcc", "--trace", "2"},
		{"--workload", "sim-gcc", "extra"},
	} {
		var out, errs bytes.Buffer
		if code := run(context.Background(), args, &out, &errs); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, printed %q", args, code, out.String())
		}
	}
}
