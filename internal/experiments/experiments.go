// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each experiment
// is a Definition in the Definitions registry whose Build returns a Table
// of the same rows/series the paper reports; RunTables drives them for
// the impress-experiments CLI, the Lab, the sweep daemon and the
// repository's benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"impress/internal/core"
	"impress/internal/errs"
	"impress/internal/resultstore"
	"impress/internal/security"
	"impress/internal/sim"
	"impress/internal/stats"
	"impress/internal/trace"
)

// Table is one regenerated result: a title, column headers, data rows and
// free-form notes comparing against the paper.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale controls simulation length: Quick for tests/benchmarks, Full for
// the complete reproduction.
type Scale struct {
	Name        string
	Warmup, Run int64
	// Workloads optionally restricts the workload list (nil = all 20).
	Workloads []string
}

// QuickScale is sized for CI: a representative workload subset and short
// runs. Shapes (who wins, roughly by how much) are stable at this scale;
// absolute percentages carry a few points of noise.
func QuickScale() Scale {
	return Scale{
		Name: "quick", Warmup: 20_000, Run: 100_000,
		Workloads: []string{"mcf", "gcc", "fotonik3d", "copy", "add", "add_copy"},
	}
}

// StandardScale runs all 20 workloads at a length where the geomeans are
// stable to about a percentage point; this is the scale EXPERIMENTS.md
// reports.
func StandardScale() Scale {
	return Scale{Name: "standard", Warmup: 50_000, Run: 250_000}
}

// FullScale runs all 20 workloads at the reproduction's full length.
func FullScale() Scale {
	return Scale{Name: "full", Warmup: 100_000, Run: 500_000}
}

// ScaleByName resolves the named experiment scale — the one vocabulary
// shared by the -scale CLI flags and the sweep-service job API, so a
// spec submitted to a daemon means exactly what it means locally. An
// unknown name returns an error wrapping errs.ErrBadSpec naming the
// known set.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "standard":
		return StandardScale(), nil
	case "full":
		return FullScale(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: %w: unknown scale %q (want quick, standard, or full)",
			errs.ErrBadSpec, name)
	}
}

// Runner executes and memoizes simulation runs so experiments sharing a
// configuration (e.g. the No-RP baseline) pay for it once.
//
// Runner is safe for concurrent use: Run deduplicates concurrent requests
// for the same spec (singleflight), so a spec simulates exactly once no
// matter how many goroutines ask for it, and Prefetch fans a spec list out
// over a worker pool. Every entry point takes its caller's context:
// overlapping sweeps on one runner each stop on their own cancellation
// only. Results are independent of execution order — every simulation is
// seeded from its own Config — so a parallel prefetch followed by serial
// table assembly is byte-identical to the fully serial path.
type Runner struct {
	Scale Scale
	// Parallelism bounds how many simulations Prefetch runs concurrently.
	// Zero (the default) means runtime.GOMAXPROCS(0); 1 forces the serial
	// path; negative values are clamped to 1. It does not limit direct Run
	// callers — they run on the calling goroutine (or wait on an in-flight
	// duplicate).
	Parallelism int
	// Clock selects the simulator clocking for every spec this runner
	// materializes. The exact modes (event-driven, cycle-accurate,
	// lockstep) are bit-identical and share result-store keys, so among
	// them this changes speed and cross-checking only. ClockSampled is
	// explicitly approximate: its results carry confidence intervals and
	// are keyed separately in the store (resultstore.Spec.Sampled), so a
	// sampled sweep can never contaminate exact baselines.
	Clock sim.ClockMode
	// MaxRelError is the sampled clock's statistical early-stop
	// threshold (sim.Config.MaxRelError); ignored by the exact modes.
	MaxRelError float64
	// AnnotateCI, with the sampled clock, appends a confidence-interval
	// annotation block after each experiment table. Off by default so
	// exact-mode golden tables stay byte-identical.
	AnnotateCI bool
	// Store, when non-nil, is the persistent result cache consulted
	// before every simulation and written back after. The in-memory memo
	// and the store share one canonical key (resultstore.SpecFor over the
	// materialized sim.Config), so the two lookups can never disagree. A
	// failed store write loses persistence only — the result is still
	// memoized and returned — and is counted in Store.Counters.
	Store *resultstore.Store
	// Progress, when non-nil, receives run-lifecycle events: one
	// ProgressSpecStarted per distinct spec followed by ProgressSpecCacheHit
	// or ProgressSpecFinished, and ProgressTableRendered per assembled
	// table. Callbacks are serialized; set it before the sweep starts and
	// do not mutate it while one runs.
	Progress func(Progress)

	runs    memo[sim.Result]
	attacks memo[security.Result]
	// sims and atkSims count ProgressSpecFinished and
	// ProgressAttackFinished events: executions, memo and store hits
	// excluded. A warm-store sweep keeps both at zero.
	sims    atomic.Int64
	atkSims atomic.Int64

	progressMu sync.Mutex
}

// NewRunner builds a Runner at the given scale.
func NewRunner(scale Scale) *Runner {
	return &Runner{Scale: scale}
}

// parallelism resolves the effective worker count: 0 means GOMAXPROCS,
// negative clamps to serial.
func (r *Runner) parallelism() int {
	if r.Parallelism < 0 {
		return 1
	}
	if r.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Parallelism
}

// Workloads returns the workload list for this runner's scale. Built-in
// names keep their figure order; any remaining scale entry is resolved as
// a workload spec ("mix:..." co-runs, "attack:..." aggressors) and
// appended in scale order, so custom scales can put arbitrary scenarios
// through every experiment. An unresolvable entry must not silently
// shrink a figure: it returns an error wrapping errs.ErrUnknownWorkload,
// which every sweep boundary (RunTables, SpecsFor, Prefetch, ShardSpecs)
// reports before any simulation starts.
func (r *Runner) Workloads() ([]trace.Workload, error) {
	all := trace.Workloads()
	if r.Scale.Workloads == nil {
		return all, nil
	}
	builtin := map[string]bool{}
	for _, w := range all {
		builtin[w.Name] = true
	}
	keep := map[string]bool{}
	var extras []trace.Workload
	for _, n := range r.Scale.Workloads {
		if builtin[n] {
			keep[n] = true
			continue
		}
		w, err := trace.WorkloadByName(n)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale %q: %w", r.Scale.Name, err)
		}
		extras = append(extras, w)
	}
	var out []trace.Workload
	for _, w := range all {
		if keep[w.Name] {
			out = append(out, w)
		}
	}
	return append(out, extras...), nil
}

// Opt is an optional override of a simulation parameter. The zero value
// means "keep sim.DefaultConfig's value"; an explicitly set value —
// including an explicit zero — is carried distinctly, so overrides never
// alias the default in the memo key.
type Opt[T any] struct {
	Set   bool
	Value T
}

// TRH returns an explicit DesignTRH override.
func TRH(v float64) Opt[float64] { return Opt[float64]{Set: true, Value: v} }

// RFM returns an explicit RFMTH override.
func RFM(v int) Opt[int] { return Opt[int]{Set: true, Value: v} }

// RunSpec fully describes one simulation run for memoization. DesignTRH
// and RFMTH override sim.DefaultConfig only when explicitly set (via TRH
// and RFM); the zero value keeps the default.
type RunSpec struct {
	Workload  trace.Workload
	Design    core.Design
	Tracker   sim.TrackerKind
	DesignTRH Opt[float64]
	RFMTH     Opt[int]
}

// config materializes the sim configuration for this spec at a scale.
func (s RunSpec) config(scale Scale) sim.Config {
	cfg := sim.DefaultConfig(s.Workload, s.Design, s.Tracker)
	cfg.WarmupInstructions = scale.Warmup
	cfg.RunInstructions = scale.Run
	if s.DesignTRH.Set {
		cfg.DesignTRH = s.DesignTRH.Value
	}
	if s.RFMTH.Set {
		cfg.RFMTH = s.RFMTH.Value
	}
	return cfg
}

// config materializes the full sim configuration for one run under this
// runner's scale and clocking. It is the single materialization path:
// both the store key (storeSpec) and the executed run derive from it, so
// the key always describes exactly the run that produced the result —
// in particular, sampled runs key with their Sampled/MaxRelError fields.
func (r *Runner) config(spec RunSpec) sim.Config {
	cfg := spec.config(r.Scale)
	cfg.Clock = r.Clock
	if r.Clock == sim.ClockSampled {
		cfg.MaxRelError = r.MaxRelError
	}
	return cfg
}

// storeSpec materializes the canonical resultstore spec for one run at
// this runner's scale. It is the single key-derivation path: the memo
// keys on storeSpec(spec).Key() and the persistent store looks up the
// identical Spec, so an in-memory hit and an on-disk hit can never name
// different simulations.
func (r *Runner) storeSpec(spec RunSpec) resultstore.Spec {
	return specOf(r.config(spec))
}

// specOf derives the store spec of a materialized RunSpec config.
func specOf(cfg sim.Config) resultstore.Spec {
	sp, err := resultstore.SpecFor(cfg)
	if err != nil {
		// Unreachable: SpecFor fails only for trace-file replays, which
		// RunSpec cannot express.
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return sp
}

// key is spec's memo and store key.
func (r *Runner) key(spec RunSpec) string { return string(r.storeSpec(spec).Key()) }

// Sims reports how many simulations this runner actually executed —
// memoized repeats and persistent-store hits are excluded. A second sweep
// against a warm Store keeps it at zero.
func (r *Runner) Sims() int64 { return r.sims.Load() }

// Run executes (or recalls) the described simulation. Concurrent calls
// with the same spec are deduplicated: one goroutine simulates, the rest
// wait for its result under their own contexts. With a Store attached,
// the persistent cache is consulted before simulating and written back
// after (see Simulate). Each distinct spec's execution emits progress
// events (started, then cache-hit or finished); memoized repeats emit
// nothing. Invalid configs return errors wrapping errs.ErrBadSpec and
// cancellation errors matching errs.ErrCancelled and ctx.Err(); a
// cancelled spec stays retryable.
func (r *Runner) Run(ctx context.Context, spec RunSpec) (sim.Result, error) {
	cfg := r.config(spec)
	sp := specOf(cfg)
	k := string(sp.Key())
	return r.runs.do(ctx, k, func() (sim.Result, error) {
		return Simulate(ctx, r.Store, r.emit, cfg, sp, k)
	})
}

// result returns spec's memoized result for table assembly, after the
// table's declared specs have executed.
func (r *Runner) result(spec RunSpec) sim.Result { return r.runs.get(r.key(spec)) }

// Prefetch executes the given specs over a worker pool of r.Parallelism
// goroutines (GOMAXPROCS by default), deduplicating repeated and
// already-memoized specs, so table assembly that follows reads the memo
// only and output is identical to running the specs serially. When ctx
// ends mid-sweep, workers stop pulling new specs, in-flight simulations
// return at their next macro-cycle boundary, and the pool drains before
// the cancellation (matching errs.ErrCancelled and ctx.Err()) returns.
// Every result already produced is memoized and store-written, so a rerun
// resumes warm. An unresolvable scale workload returns an error wrapping
// errs.ErrUnknownWorkload before any simulation starts.
func (r *Runner) Prefetch(ctx context.Context, specs []RunSpec) error {
	if _, err := r.Workloads(); err != nil {
		return err
	}
	return forEach(ctx, r.parallelism(), unique(specs, r.key), func(s RunSpec) error {
		_, err := r.Run(ctx, s)
		return err
	})
}

// ShardSpecs returns the deterministic subset of specs owned by shard
// index (1-based) out of count. Specs are deduplicated by canonical key
// and each distinct simulation is assigned to exactly one shard by its
// key hash, so for any count the shards are pairwise disjoint and their
// union is the full deduplicated spec set — an exact cover. The
// assignment depends only on the canonical keys, so every machine in a
// fleet computes the same partition and the shards merge losslessly
// through a shared Store.
//
// Out-of-range index/count returns an error wrapping errs.ErrBadSpec —
// shard parameters that arrive over the wire (the impress-labd job API)
// must be rejectable without killing the server — and an unresolvable
// scale workload one wrapping errs.ErrUnknownWorkload.
func (r *Runner) ShardSpecs(specs []RunSpec, index, count int) ([]RunSpec, error) {
	if count < 1 || index < 1 || index > count {
		return nil, fmt.Errorf("experiments: %w: shard %d/%d out of range (want 1 <= index <= count)",
			errs.ErrBadSpec, index, count)
	}
	if _, err := r.Workloads(); err != nil {
		return nil, err
	}
	var out []RunSpec
	for _, s := range unique(specs, r.key) {
		if shardOf(r.key(s), count) == index-1 {
			out = append(out, s)
		}
	}
	return out, nil
}

// shardOf maps a canonical key to a shard in [0, count): the key is a
// sha256, so its leading 60 bits are uniformly distributed and taking
// them modulo count balances shards to within sampling noise.
func shardOf(k string, count int) int {
	v, err := strconv.ParseUint(k[:15], 16, 64)
	if err != nil {
		panic(fmt.Sprintf("experiments: malformed result key %q: %v", k, err))
	}
	return int(v % uint64(count))
}

// baselineSpec is the unprotected (no tracker, no defense) run.
func baselineSpec(w trace.Workload) RunSpec {
	return RunSpec{Workload: w, Design: core.NewDesign(core.NoRP), Tracker: sim.TrackerNone}
}

// noRPSpec is the Rowhammer-only baseline for a tracker (the paper's
// "No-RP" normalization target).
func noRPSpec(w trace.Workload, tracker sim.TrackerKind, trh float64, rfmth int) RunSpec {
	return RunSpec{
		Workload: w, Design: core.NewDesign(core.NoRP), Tracker: tracker,
		DesignTRH: TRH(trh), RFMTH: RFM(rfmth),
	}
}

// geoMeanBy splits per-workload values into the paper's SPEC and STREAM
// classes and returns their geometric means.
func geoMeanBy(ws []trace.Workload, vals map[string]float64) (specGM, streamGM float64) {
	var spec, stream []float64
	for _, w := range ws {
		v, ok := vals[w.Name]
		if !ok {
			continue
		}
		if w.Stream {
			stream = append(stream, v)
		} else {
			spec = append(spec, v)
		}
	}
	if len(spec) > 0 {
		specGM = stats.GeoMean(spec)
	}
	if len(stream) > 0 {
		streamGM = stats.GeoMean(stream)
	}
	return specGM, streamGM
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
