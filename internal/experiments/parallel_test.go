package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"impress/internal/errs"
	"impress/internal/sim"
	"impress/internal/trace"
)

// renderAll renders tables to one string for byte-level comparison.
func renderAll(tabs []*Table) string {
	var sb strings.Builder
	for _, t := range tabs {
		t.Render(&sb)
	}
	return sb.String()
}

// TestPrefetchDeterminism checks the tentpole guarantee: a parallel
// Prefetch populating the memo cache yields byte-identical rendered tables
// to the fully serial path. Run at QuickScale over a representative subset
// of the simulation-backed experiments (tracker-less sweep, the headline
// tracker comparison incl. MINT/RFM, and the energy rollup).
func TestPrefetchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale determinism comparison skipped in -short mode")
	}
	build := func(parallelism int) string {
		r := NewRunner(QuickScale())
		r.Parallelism = parallelism
		return renderAll([]*Table{build(t, "fig3", r), build(t, "fig13", r), build(t, "energy", r)})
	}
	serial := build(1)
	parallel := build(8)
	if serial != parallel {
		t.Fatalf("parallel output differs from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestConcurrentRunSingleflight hammers Runner.Run with the same spec from
// many goroutines: every caller must observe the identical result and the
// simulation must execute exactly once (one cache entry, one sim.Result).
// Run under -race this is the concurrency test the CI workflow relies on.
func TestConcurrentRunSingleflight(t *testing.T) {
	r := NewRunner(tinyScale())
	spec := baselineSpec(workloads(t, r)[0])
	const goroutines = 16
	results := make([]sim.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = r.Run(context.Background(), spec)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < goroutines; i++ {
		if results[i].Cycles != results[0].Cycles ||
			results[i].WeightedIPCSum != results[0].WeightedIPCSum {
			t.Fatalf("goroutine %d saw a different result", i)
		}
	}
	if n := len(r.runs.m); n != 1 || r.Sims() != 1 {
		t.Fatalf("cache has %d entries after %d simulations, want 1 and 1 (singleflight must dedup)", n, r.Sims())
	}
}

// TestConcurrentRunDistinctSpecs mixes distinct specs across goroutines to
// exercise the cache lock under contention (meaningful under -race).
func TestConcurrentRunDistinctSpecs(t *testing.T) {
	r := NewRunner(tinyScale())
	ws := workloads(t, r)
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := ws[i%len(ws)]
			_, err := r.Run(context.Background(), baselineSpec(w))
			errs <- err
			_, err = r.Run(context.Background(), noRPSpec(w, sim.TrackerGraphene, 4000, 80))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.runs.m); n != 2*len(ws) {
		t.Fatalf("cache has %d entries, want %d", n, 2*len(ws))
	}
}

// TestPrefetchDedupsAndCaches verifies Prefetch deduplicates repeated
// specs and that assembly afterwards only hits the cache.
func TestPrefetchDedupsAndCaches(t *testing.T) {
	r := NewRunner(tinyScale())
	r.Parallelism = 4
	w := workloads(t, r)[0]
	spec := baselineSpec(w)
	ctx := context.Background()
	if err := r.Prefetch(ctx, []RunSpec{spec, spec, spec, noRPSpec(w, sim.TrackerGraphene, 4000, 80)}); err != nil {
		t.Fatal(err)
	}
	if n := len(r.runs.m); n != 2 || r.Sims() != 2 {
		t.Fatalf("cache has %d entries after %d simulations, want 2 and 2", n, r.Sims())
	}
	if _, err := r.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if n := len(r.runs.m); n != 2 || r.Sims() != 2 {
		t.Fatal("Run after Prefetch should be a pure cache hit")
	}
}

// TestPrefetchPanicPropagates checks that a simulation hitting an
// internal invariant panic does not hang the pool or its waiters: the
// panic resurfaces to the Prefetch caller, and later Run calls on the
// poisoned entry re-panic too.
func TestPrefetchPanicPropagates(t *testing.T) {
	r := NewRunner(tinyScale())
	r.Parallelism = 2
	broken := trace.Workload{Name: "broken", NewGenerator: func(int, uint64) trace.Generator {
		panic("generator invariant violated")
	}}
	bad := RunSpec{Workload: broken, Design: baselineSpec(broken).Design, Tracker: sim.TrackerNone}
	ctx := context.Background()
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { _ = r.Prefetch(ctx, []RunSpec{bad, baselineSpec(workloads(t, r)[0])}) })
	mustPanic(func() { _, _ = r.Run(ctx, bad) })
}

// TestRunnerZeroValueUsable checks the mutex-guarded cache lazily
// initializes so a zero-value Runner (plus a Scale) still works.
func TestRunnerZeroValueUsable(t *testing.T) {
	r := &Runner{Scale: tinyScale()}
	res, err := r.Run(context.Background(), baselineSpec(workloads(t, r)[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightedIPCSum <= 0 {
		t.Fatalf("bad result from zero-value runner: %+v", res)
	}
}

// TestPrefetchReturnsSpecErrors: a spec the simulator rejects is an
// ordinary typed error from Prefetch and Run — not a panic — and is not
// memoized, so a later call reports it afresh.
func TestPrefetchReturnsSpecErrors(t *testing.T) {
	r := NewRunner(tinyScale())
	r.Parallelism = 2
	w := workloads(t, r)[0]
	bad := RunSpec{Workload: w, Design: baselineSpec(w).Design, Tracker: sim.TrackerKind("bogus")}
	ctx := context.Background()
	if err := r.Prefetch(ctx, []RunSpec{bad, baselineSpec(w)}); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("Prefetch with a bogus tracker returned %v; want ErrBadSpec", err)
	}
	if _, err := r.Run(ctx, bad); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("Run with a bogus tracker returned %v; want ErrBadSpec", err)
	}
	if _, err := r.Run(ctx, bad); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("a failed spec must not be memoized as a success: %v", err)
	}
}
