package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"impress/internal/errs"
	"impress/internal/trace"
)

// Definition describes one runnable experiment: its CLI/-only ID,
// whether it needs performance simulations, its table builder, and —
// for simulation-backed experiments — its declared spec list.
type Definition struct {
	ID string
	// Analytical marks experiments that need no performance simulation
	// (model arithmetic and the single-bank security harness only).
	Analytical bool
	// Build assembles the table under ctx. A simulation-backed Build
	// first executes its declared Specs through r, then assembles from
	// the runner's memo; the others compute directly, honoring ctx in
	// the security harness.
	Build func(ctx context.Context, r *Runner) (*Table, error)
	// Specs declares every simulation Build needs for the scale's
	// workloads (nil for analytical experiments). SpecsFor unions them
	// so sweep services can shard a job's exact simulation universe
	// before assembling any table.
	Specs func(ws []trace.Workload) []RunSpec
}

// Definitions returns every experiment in paper order — the single
// registry behind RunTables, SpecsFor and the impress-experiments CLI.
func Definitions() []Definition {
	a := func(id string, build func() *Table) Definition {
		return Definition{ID: id, Analytical: true,
			Build: func(context.Context, *Runner) (*Table, error) { return build(), nil }}
	}
	h := func(id string, build func(context.Context) (*Table, error)) Definition {
		return Definition{ID: id, Analytical: true,
			Build: func(ctx context.Context, _ *Runner) (*Table, error) { return build(ctx) }}
	}
	s := func(id string, specs func([]trace.Workload) []RunSpec, assemble func(*Runner, []trace.Workload) *Table) Definition {
		return Definition{ID: id, Specs: specs, Build: func(ctx context.Context, r *Runner) (*Table, error) {
			ws, err := r.Workloads()
			if err != nil {
				return nil, err
			}
			if err := r.Prefetch(ctx, specs(ws)); err != nil {
				return nil, err
			}
			return assemble(r, ws), nil
		}}
	}
	return []Definition{
		a("table1", TableI),
		a("table2", TableII),
		s("fig3", figure3Specs, figure3),
		a("fig4", Figure4),
		s("fig5", figure5Specs, figure5),
		a("fig6", Figure6),
		a("fig7", Figure7),
		a("fig8", Figure8),
		h("eq5", ImpressNWorstCase),
		a("fig12", Figure12),
		s("fig13", figure13Specs, figure13),
		a("table3", TableIII),
		s("fig14", figure14Specs, figure14),
		s("energy", figure14Specs, energyTable),
		s("fig15", figure15Specs, figure15),
		s("fig16", figure16Specs, figure16),
		h("fig18", Figure18),
		a("fig19", Figure19),
		a("storage", StorageTable),
		h("security", SecuritySummary),
		h("prac", PRACTable),
		a("dsac", RelatedWorkDSAC),
		// ablation-rfm is analytical (single-bank security harness, no
		// performance simulation) but honors the runner's parallelism.
		{ID: "ablation-rfm", Analytical: true, Build: func(ctx context.Context, r *Runner) (*Table, error) {
			return AblationRFMPacing(ctx, r.parallelism())
		}},
		// attackzoo is likewise analytical (harness only) but uses the
		// runner for its parallelism and its attack-evaluation cache.
		{ID: "attackzoo", Analytical: true, Build: AttackZooTable},
	}
}

// KnownIDs returns every experiment ID, sorted.
func KnownIDs() []string {
	defs := Definitions()
	ids := make([]string, len(defs))
	for i, d := range defs {
		ids[i] = d.ID
	}
	sort.Strings(ids)
	return ids
}

// RunOptions selects and observes the work RunTables performs.
type RunOptions struct {
	// Only restricts assembly to these experiment IDs (nil = all).
	Only []string
	// Analytical restricts to the simulation-free experiments.
	Analytical bool
	// OnTable, when non-nil, receives each table as soon as it is
	// assembled, in paper order — CLIs stream output through it instead
	// of waiting for the full slice.
	OnTable func(*Table)
}

// RunTables assembles the selected experiment tables under a context.
// Caller-input failures surface as typed errors before any simulation
// starts: an unknown experiment ID (errs.ErrBadSpec) or an unresolvable
// scale workload (errs.ErrUnknownWorkload). A simulation rejecting its
// config and cancellation (matching errs.ErrCancelled and ctx.Err(),
// honored within one simulation macro cycle and between tables) return
// as errors too. Completed simulations stay memoized — and persistently
// stored with a Store attached — so a cancelled sweep rerun resumes
// warm. Internal invariant panics still propagate.
func RunTables(ctx context.Context, r *Runner, opts RunOptions) ([]*Table, error) {
	selected, err := selectDefs(opts)
	if err != nil {
		return nil, err
	}
	ws, universe, err := declared(r, selected)
	if err != nil {
		return nil, err
	}
	// A batch full sweep prefetches the union up front so independent
	// runs across figures execute concurrently. Streaming callers
	// (OnTable) want completed tables incrementally, so each figure
	// executes its own set as it is built instead — the memo still
	// deduplicates cross-figure overlap, and output is byte-identical
	// either way. Filtered runs are always incremental.
	if len(opts.Only) == 0 && !opts.Analytical && opts.OnTable == nil {
		if err := r.Prefetch(ctx, universe); err != nil {
			return nil, err
		}
	}
	var tables []*Table
	for _, d := range selected {
		if err := ctx.Err(); err != nil {
			return nil, stopped(err)
		}
		t, err := d.Build(ctx, r)
		if err != nil {
			return nil, err
		}
		if r.AnnotateCI && d.Specs != nil {
			annotateCI(r, d.Specs(ws), t)
		}
		r.emit(Progress{Kind: ProgressTableRendered, Table: t.ID})
		if opts.OnTable != nil {
			opts.OnTable(t)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// selectDefs resolves a RunOptions selection against the registry: the
// selected definitions in paper order, or a typed error for an unknown
// ID or an -only/-analytical conflict. RunTables and SpecsFor share it
// so "which experiments does this request name" can never disagree
// between validation, sharding and assembly.
func selectDefs(opts RunOptions) ([]Definition, error) {
	defs := Definitions()
	want := map[string]bool{}
	for _, id := range opts.Only {
		var def *Definition
		for i := range defs {
			if defs[i].ID == id {
				def = &defs[i]
				break
			}
		}
		if def == nil {
			return nil, fmt.Errorf("experiments: %w: unknown experiment ID %q (known: %s)",
				errs.ErrBadSpec, id, strings.Join(KnownIDs(), ", "))
		}
		if opts.Analytical && !def.Analytical {
			return nil, fmt.Errorf("experiments: %w: experiment %q is simulation-backed; drop the analytical restriction to run it",
				errs.ErrBadSpec, id)
		}
		want[id] = true
	}
	var selected []Definition
	for _, d := range defs {
		if len(want) > 0 && !want[d.ID] {
			continue
		}
		if opts.Analytical && !d.Analytical {
			continue
		}
		selected = append(selected, d)
	}
	return selected, nil
}

// declared resolves the scale's workloads and returns them with every
// simulation spec the selected definitions declare, in declaration
// order with repeats (Prefetch and SpecsFor deduplicate). A selection
// without simulation-backed experiments resolves nothing, so an
// analytical sweep never fails on the scale's workload list.
func declared(r *Runner, selected []Definition) ([]trace.Workload, []RunSpec, error) {
	var ws []trace.Workload
	var specs []RunSpec
	for _, d := range selected {
		if d.Specs == nil {
			continue
		}
		if ws == nil {
			var err error
			if ws, err = r.Workloads(); err != nil {
				return nil, nil, err
			}
		}
		specs = append(specs, d.Specs(ws)...)
	}
	return ws, specs, nil
}

// SpecsFor returns the deduplicated union of the simulation specs the
// experiments selected by opts need — the exact universe a sweep
// service shards across its worker fleet before assembling any table
// (OnTable is ignored; an all-analytical selection returns an empty
// universe). Specs keep their first-seen declaration order, so every
// node computes the same list. Unknown IDs, selection conflicts and
// unresolvable scale workloads surface as typed errors (errs.ErrBadSpec,
// errs.ErrUnknownWorkload) exactly as RunTables would report them.
func SpecsFor(r *Runner, opts RunOptions) ([]RunSpec, error) {
	selected, err := selectDefs(opts)
	if err != nil {
		return nil, err
	}
	_, specs, err := declared(r, selected)
	if err != nil {
		return nil, err
	}
	return unique(specs, r.key), nil
}

// annotateCI appends a confidence-interval summary note to a
// simulation-backed table assembled from sampled runs: the worst
// (largest) 95% relative half-width over the table's spec universe for
// each tracked metric, plus the early-stop count. Every spec was
// executed by the Build that just ran, so these are memo reads. Exact-
// mode results carry no estimates and contribute nothing, which keeps
// default-mode table output byte-identical even with the flag set.
func annotateCI(r *Runner, specs []RunSpec, t *Table) {
	var n, early int
	var worstIPC, worstACT float64
	for _, s := range unique(specs, r.key) {
		est := r.result(s).Estimates
		if est == nil {
			continue
		}
		n++
		if est.EarlyStopped {
			early++
		}
		if est.WeightedIPC.RelError > worstIPC {
			worstIPC = est.WeightedIPC.RelError
		}
		if est.ACTsPerKilo.RelError > worstACT {
			worstACT = est.ACTsPerKilo.RelError
		}
	}
	if n == 0 {
		return
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"sampled estimates, 95%% CI: worst rel. half-width IPC %.2f%%, ACTs %.2f%% across %d runs (%d early-stopped)",
		100*worstIPC, 100*worstACT, n, early))
}
