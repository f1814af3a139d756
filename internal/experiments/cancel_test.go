package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"impress/internal/errs"
	"impress/internal/resultstore"
	"impress/internal/sim"
	"impress/internal/trace"
)

// fig3Only runs RunTables restricted to fig3 — 42 distinct QuickScale
// specs, the smallest simulation-backed sweep.
func fig3Only(ctx context.Context, r *Runner) ([]*Table, error) {
	return RunTables(ctx, r, RunOptions{Only: []string{"fig3"}})
}

const fig3Specs = 42 // 6 workloads x (baseline + 6 tMRO points)

// TestCancellationMidSweep is the resumability contract end to end
// (ISSUE satellite): cancel a QuickScale sweep from its own progress
// stream, require the typed error promptly, require the store to hold
// only complete, verifiable entries, and require a warm rerun to finish
// with simulated < total.
func TestCancellationMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const cancelAfter = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(QuickScale())
	r.Parallelism = 1
	r.Store = store
	var startedAfterCancel, finished int
	cancelled := false
	r.Progress = func(p Progress) {
		switch p.Kind {
		case ProgressSpecStarted:
			if cancelled {
				startedAfterCancel++
			}
		case ProgressSpecFinished:
			if finished++; finished == cancelAfter {
				cancelled = true
				cancel()
			}
		}
	}

	_, err = fig3Only(ctx, r)
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if !errors.Is(err, errs.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v; want ErrCancelled wrapping context.Canceled", err)
	}
	// Within one spec boundary: at Parallelism 1 the cancel fires inside
	// spec k's finished event, so no further spec may start.
	if startedAfterCancel != 0 {
		t.Fatalf("%d specs started after cancellation; the sweep must stop at the spec boundary", startedAfterCancel)
	}

	// The store holds only complete, verifiable entries: every file
	// parses (no Invalid), and each entry's key round-trips its spec.
	stats, err := store.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Invalid != 0 {
		t.Fatalf("store holds %d invalid entries after cancellation; writes must stay atomic", stats.Invalid)
	}
	entries, err := store.Entries()
	if err != nil {
		t.Fatal(err)
	}
	// Each simulation persists a result entry plus, with warmup enabled,
	// a warmup-checkpoint entry; the completed-work contract is about
	// the results.
	var results []resultstore.Entry
	for _, e := range entries {
		if e.Kind == "" {
			results = append(results, e)
		}
	}
	if len(results) != cancelAfter {
		t.Fatalf("store holds %d result entries; the %d completed simulations should have persisted",
			len(results), cancelAfter)
	}
	for _, e := range results {
		if got, ok := store.Get(e.Spec); !ok || got.Cycles != e.Result.Cycles {
			t.Fatalf("entry %s does not round-trip through Get", e.Key[:12])
		}
	}

	// Warm rerun: a fresh runner over the same store completes and
	// simulates strictly less than the full sweep.
	r2 := NewRunner(QuickScale())
	r2.Parallelism = 1
	r2.Store = store
	tables, err := fig3Only(context.Background(), r2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "fig3" {
		t.Fatalf("warm rerun rendered %d tables", len(tables))
	}
	if sims := r2.Sims(); sims != fig3Specs-cancelAfter {
		t.Fatalf("warm rerun simulated %d of %d specs; want the %d the cancelled sweep did not finish",
			sims, fig3Specs, fig3Specs-cancelAfter)
	}
}

// TestCancellationDrainsParallelPrefetch: with a parallel pool, a
// cancelled Prefetch returns the typed error after the pool drains, and
// in-flight simulations persist to the store.
func TestCancellationDrainsParallelPrefetch(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(QuickScale())
	r.Parallelism = 4
	r.Store = store
	var mu sync.Mutex
	finished := 0
	r.Progress = func(p Progress) {
		// Runner callbacks are serialized, but lock anyway: the test
		// also reads finished after the sweep.
		mu.Lock()
		defer mu.Unlock()
		if p.Kind == ProgressSpecFinished {
			if finished++; finished == 2 {
				cancel()
			}
		}
	}
	err = r.Prefetch(ctx, figure3Specs(workloads(t, r)))
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled prefetch returned %v", err)
	}
	stats, err := store.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Invalid != 0 {
		t.Fatalf("store holds %d invalid entries", stats.Invalid)
	}
	entries, err := store.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var results int64
	for _, e := range entries {
		if e.Kind == "" {
			results++
		}
	}
	if results != r.Sims() {
		t.Fatalf("store holds %d result entries but the runner simulated %d; completed in-flight work must persist",
			results, r.Sims())
	}
}

// TestUnknownScaleWorkloadSurfacesTypedError: a typo in a scale's
// workload list surfaces as ErrUnknownWorkload from every sweep boundary
// — RunTables (batch and incremental), SpecsFor, Prefetch and
// ShardSpecs — before any simulation starts, instead of panicking
// mid-sweep.
func TestUnknownScaleWorkloadSurfacesTypedError(t *testing.T) {
	scale := QuickScale()
	scale.Workloads = append(scale.Workloads, "no-such-workload")
	r := NewRunner(scale)
	r.Progress = func(p Progress) {
		if p.Kind == ProgressSpecStarted {
			t.Errorf("spec %s started under an unresolvable scale", p.Spec)
		}
	}
	good := baselineSpec(workloads(t, NewRunner(tinyScale()))[0])
	ctx := context.Background()
	check := func(boundary string, err error) {
		t.Helper()
		if !errors.Is(err, errs.ErrUnknownWorkload) {
			t.Fatalf("%s: got %v; want ErrUnknownWorkload", boundary, err)
		}
		if !strings.Contains(err.Error(), "no-such-workload") {
			t.Fatalf("%s: error %q does not name the bad workload", boundary, err)
		}
	}
	_, err := RunTables(ctx, r, RunOptions{})
	check("RunTables", err)
	_, err = RunTables(ctx, r, RunOptions{Only: []string{"table1", "fig3"}})
	check("RunTables -only", err)
	_, err = SpecsFor(r, RunOptions{})
	check("SpecsFor", err)
	check("Prefetch", r.Prefetch(ctx, []RunSpec{good}))
	_, err = r.ShardSpecs([]RunSpec{good}, 1, 2)
	check("ShardSpecs", err)
	if r.Sims() != 0 {
		t.Fatalf("%d simulations ran under an unresolvable scale", r.Sims())
	}
	// An analytical selection never resolves the scale's workloads.
	if _, err := RunTables(ctx, r, RunOptions{Only: []string{"table1"}}); err != nil {
		t.Fatalf("analytical table under an unresolvable scale: %v", err)
	}
}

// TestUnknownExperimentIDTypedError: RunTables rejects unknown IDs (and
// simulation-backed IDs under the analytical restriction) with
// ErrBadSpec before any work starts.
func TestUnknownExperimentIDTypedError(t *testing.T) {
	r := NewRunner(QuickScale())
	_, err := RunTables(context.Background(), r, RunOptions{Only: []string{"fig999"}})
	if !errors.Is(err, errs.ErrBadSpec) || !strings.Contains(err.Error(), "fig999") {
		t.Fatalf("unknown ID returned %v", err)
	}
	_, err = RunTables(context.Background(), r, RunOptions{Only: []string{"fig3"}, Analytical: true})
	if !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("analytical+fig3 returned %v", err)
	}
	if sims := r.Sims(); sims != 0 {
		t.Fatalf("validation errors must precede work; %d specs simulated", sims)
	}
}

// TestProgressDeterministicSerial is the ISSUE satellite: at
// Parallelism 1 the ordered progress event sequence is byte-stable
// across runs.
func TestProgressDeterministicSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	record := func() []string {
		var events []string
		r := NewRunner(QuickScale())
		r.Parallelism = 1
		r.Progress = func(p Progress) { events = append(events, p.String()) }
		if _, err := fig3Only(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("event counts differ across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across runs:\n %s\n %s", i, a[i], b[i])
		}
	}
	// 42 specs x (started + finished) + 1 table event.
	if want := 2*fig3Specs + 1; len(a) != want {
		t.Fatalf("serial fig3 emitted %d events, want %d:\n%s", len(a), want, strings.Join(a, "\n"))
	}
}

// TestProgressBalancesAtAnyParallelism is the ISSUE satellite's second
// half: at any parallelism started == finished + cache-hit, cold and
// warm.
func TestProgressBalancesAtAnyParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	count := func(parallelism int) (started, cacheHits, finished int) {
		r := NewRunner(QuickScale())
		r.Parallelism = parallelism
		r.Store = store
		r.Progress = func(p Progress) {
			switch p.Kind {
			case ProgressSpecStarted:
				started++
			case ProgressSpecCacheHit:
				cacheHits++
			case ProgressSpecFinished:
				finished++
			}
		}
		if _, err := fig3Only(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		return
	}
	started, cacheHits, finished := count(8) // cold, parallel
	if started != fig3Specs || finished != fig3Specs || cacheHits != 0 {
		t.Fatalf("cold parallel run: started=%d cache-hits=%d finished=%d; want %d/0/%d",
			started, cacheHits, finished, fig3Specs, fig3Specs)
	}
	started, cacheHits, finished = count(3) // warm, different parallelism
	if started != fig3Specs || cacheHits != fig3Specs || finished != 0 {
		t.Fatalf("warm run: started=%d cache-hits=%d finished=%d; want %d/%d/0",
			started, cacheHits, finished, fig3Specs, fig3Specs)
	}
}

// TestRunTablesMatchesAll pins that the sweep boundary renders exactly
// what the experiment's own builder renders on a fresh runner.
func TestRunTablesMatchesAll(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	render := func(tables []*Table) string {
		var b strings.Builder
		for _, tb := range tables {
			tb.Render(&b)
		}
		return b.String()
	}
	ra := NewRunner(QuickScale())
	ctxTables, err := fig3Only(context.Background(), ra)
	if err != nil {
		t.Fatal(err)
	}
	rb := NewRunner(QuickScale())
	if got, want := render(ctxTables), render([]*Table{build(t, "fig3", rb)}); got != want {
		t.Fatalf("RunTables rendering diverged from the direct builder:\n%s", diffHint(got, want))
	}
}

func diffHint(a, b string) string {
	return fmt.Sprintf("--- RunTables ---\n%s\n--- direct ---\n%s", a, b)
}

// TestCancelledRunnerIsRetryable: a cancellation must not poison the
// memo — retrying the sweep on the SAME runner under a live context
// completes (the cancelled in-flight specs re-simulate).
func TestCancelledRunnerIsRetryable(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickScale sweep skipped in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(QuickScale())
	r.Parallelism = 2
	finished := 0
	r.Progress = func(p Progress) {
		if p.Kind == ProgressSpecFinished {
			if finished++; finished == 2 {
				cancel()
			}
		}
	}
	specs := figure3Specs(workloads(t, r))
	if err := r.Prefetch(ctx, specs); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled prefetch returned %v", err)
	}
	r.Progress = nil
	if err := r.Prefetch(context.Background(), specs); err != nil {
		t.Fatalf("retry on the same runner failed: %v", err)
	}
	if _, err := fig3Only(context.Background(), r); err != nil {
		t.Fatalf("rendering on the retried runner failed: %v", err)
	}
}

// gatedWorkload is gcc behind a gate: building a core's generator — the
// first thing a simulation does — announces the run on entered (once)
// and then blocks until gate closes, so a test can hold a simulation in
// flight while it arranges cancellations around it.
func gatedWorkload(t *testing.T, name string, entered, gate chan struct{}) trace.Workload {
	t.Helper()
	gcc, err := trace.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	return trace.Workload{Name: name, NewGenerator: func(core int, seed uint64) trace.Generator {
		once.Do(func() { close(entered) })
		<-gate
		return gcc.NewGenerator(core, seed)
	}}
}

// await fails the test if ch does not close within a generous bound.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestOverlappingSweepsCancelIndependently runs two sweeps on one runner
// under separate contexts, both with a simulation in flight, and
// cancels only the first: it must stop with ErrCancelled while the
// second, whose context is live, completes.
func TestOverlappingSweepsCancelIndependently(t *testing.T) {
	r := NewRunner(Scale{Name: "gated", Warmup: 1_000, Run: 5_000})
	gate := make(chan struct{})
	enteredA, enteredB := make(chan struct{}), make(chan struct{})
	specA := baselineSpec(gatedWorkload(t, "gated-a", enteredA, gate))
	specB := baselineSpec(gatedWorkload(t, "gated-b", enteredB, gate))

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() { errA <- r.Prefetch(ctxA, []RunSpec{specA}) }()
	await(t, enteredA, "sweep A's simulation")
	go func() { errB <- r.Prefetch(context.Background(), []RunSpec{specB}) }()
	await(t, enteredB, "sweep B's simulation")

	cancelA()
	close(gate)
	if err := <-errA; !errors.Is(err, errs.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep A returned %v; want ErrCancelled wrapping context.Canceled", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("sweep B failed although only A's context was cancelled: %v", err)
	}
	if r.Sims() != 1 {
		t.Fatalf("%d simulations completed, want B's one", r.Sims())
	}
}

// waitCtx announces on waiting when something first selects on its Done
// channel — for a Runner.Run caller that found its spec in flight, that
// is the moment it starts waiting on the owner.
type waitCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestSingleflightWaiterRetriesOwnersCancellation: a caller waiting on
// another caller's in-flight simulation of the same spec must not
// inherit that owner's cancellation — with its own context live, it
// retries and gets the result.
func TestSingleflightWaiterRetriesOwnersCancellation(t *testing.T) {
	r := NewRunner(Scale{Name: "gated", Warmup: 1_000, Run: 5_000})
	gate, entered := make(chan struct{}), make(chan struct{})
	spec := baselineSpec(gatedWorkload(t, "gated", entered, gate))

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	ownerErr := make(chan error, 1)
	go func() {
		_, err := r.Run(ownerCtx, spec)
		ownerErr <- err
	}()
	await(t, entered, "the owner's simulation")

	waiter := &waitCtx{Context: context.Background(), waiting: make(chan struct{})}
	type outcome struct {
		res sim.Result
		err error
	}
	waiterOut := make(chan outcome, 1)
	go func() {
		res, err := r.Run(waiter, spec)
		waiterOut <- outcome{res, err}
	}()
	await(t, waiter.waiting, "the waiter to block on the in-flight spec")

	cancelOwner()
	close(gate)
	if err := <-ownerErr; !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled owner returned %v; want ErrCancelled", err)
	}
	got := <-waiterOut
	if got.err != nil {
		t.Fatalf("waiter inherited the owner's cancellation: %v", got.err)
	}
	if got.res.Cycles == 0 {
		t.Fatalf("waiter got an empty result: %+v", got.res)
	}
	if r.Sims() != 1 {
		t.Fatalf("%d simulations completed, want the waiter's retry only", r.Sims())
	}
}
