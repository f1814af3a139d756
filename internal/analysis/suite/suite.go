// Package suite instantiates the impress-lint analyzers with this
// repository's frozen configuration: the deterministic-output packages,
// the context-first boundary and its allowlists, the error-taxonomy
// boundary, and the hot-path directive. cmd/impress-lint (standalone
// and go vet -vettool modes) runs exactly this suite; the analyzer
// packages themselves stay repo-agnostic.
package suite

import (
	"impress/internal/analysis"
	"impress/internal/analysis/ctxfirst"
	"impress/internal/analysis/determinism"
	"impress/internal/analysis/errtaxonomy"
	"impress/internal/analysis/hotpath"
)

// StrictPkgs are the packages whose entire output is contractually
// bit-identical across runs, clock modes, parallelism and replay
// (DESIGN.md §4, §7, §8): wall-clock reads, the global random source
// and unsorted directory listings are forbidden there outright.
var StrictPkgs = []string{
	"impress/internal/sim",
	"impress/internal/experiments",
	"impress/internal/trace",
	"impress/internal/resultstore",
}

// WallclockOK are the reviewed maintenance paths inside strict packages
// that may read the wall clock because their reads can never reach
// simulation output. Additions take the same review bar as a ctxfirst
// allowlist entry.
var WallclockOK = []string{
	// The store's directory walk ages in-flight temp files (tempTTL)
	// to decide what GC may reclaim; cache hygiene, not results.
	"impress/internal/resultstore.Store.walk",
}

// legacyNoCtx freezes the public functions that predate the Lab and
// the pure constructors/calculators that perform no run work.
// Everything else exported from package impress must take a
// context.Context as its first parameter.
//
// Do NOT add a new run-performing entry point here: give it a ctx (or
// hang it off Lab). This list only ever grows for pure
// constructors/converters with a review note in the PR.
var legacyNoCtx = []string{
	// Pre-Lab security analyses (uncancellable; they panic inside the
	// security package on an invalid config, not at this boundary).
	"MonteCarlo", "SearchWorstCase",

	// Pure constructors, converters and calculators: no run to cancel.
	"NewModel", "NewEACTCalculator", "FracBitsEffectiveThreshold",
	"DDR5", "Ns", "NewDesign", "NewBankPolicy",
	"NewRand", "NewGraphene", "NewPARA", "NewMithril",
	"NewMINT", "MINTToleratedTRH", "NewPRAC",
	// Zoo-extension trackers (adversarial-synthesis PR): pure
	// constructors like the trackers above.
	"NewHydra", "NewABACuS",
	// Attack-zoo locators (same PR): a path computation and a manifest
	// directory listing — no run to cancel.
	"DefaultAttackZooDir", "AttackZooEntries",
	"StorageComparison", "MINTStorageBytes",
	"Workloads", "WorkloadByName", "MixWorkloads",
	"DecodeTrace", "ReadTraceFile", "OpenTraceReader", "DefaultSimConfig",
	"OpenResultStore", "ResultSpecFor",
	"ExperimentTRH", "ExperimentRFM", "NewExperimentRunner",
	"QuickScale", "StandardScale", "FullScale",

	// Lab construction and options. WithMaxRelError/WithCIAnnotations
	// (PR 9 review): pure option constructors for the sampled clock —
	// they record configuration, the runs they shape go through the
	// ctx-first Lab methods.
	"NewLab", "WithStore", "WithResultStore",
	"WithParallelism", "WithClock", "WithProgress",
	"WithMaxRelError", "WithCIAnnotations",
	"ExperimentsOnly", "ExperimentsAnalytical", "ExperimentsOnTable",

	// Sweep-service client construction (PR 8 review): a pure
	// constructor — it opens no connection and performs no run work;
	// every SweepClient method takes ctx first.
	"NewSweepClient",
}

// Analyzers returns the full impress-lint suite with the repository
// configuration applied.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.New(determinism.Config{
			StrictPkgs:  StrictPkgs,
			WallclockOK: WallclockOK,
		}),
		ctxfirst.New(ctxfirst.Config{
			Packages:     []string{"impress"},
			AllowFuncs:   legacyNoCtx,
			RunTypes:     []string{"Lab"},
			AllowMethods: []string{"Lab.Store"},
		}),
		errtaxonomy.New(errtaxonomy.Config{
			Boundary:    []string{"impress"},
			TaxonomyPkg: "impress/internal/errs",
		}),
		hotpath.New(),
	}
}
