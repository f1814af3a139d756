package sim

import (
	"context"
	"testing"

	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/trace"
)

// mustRun simulates cfg under an uncancellable context, failing the
// test on an error.
func mustRun(tb testing.TB, cfg Config) Result {
	tb.Helper()
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func quickConfig(name string, design core.Design, tracker TrackerKind) Config {
	w, err := trace.WorkloadByName(name)
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig(w, design, tracker)
	cfg.WarmupInstructions = 10_000
	cfg.RunInstructions = 40_000
	return cfg
}

func TestRunCompletes(t *testing.T) {
	res := mustRun(t, quickConfig("gcc", core.NewDesign(core.NoRP), TrackerNone))
	if len(res.IPC) != 8 {
		t.Fatalf("want 8 per-core IPCs, got %d", len(res.IPC))
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 || ipc > 6 {
			t.Fatalf("core %d IPC %v out of (0, 6]", i, ipc)
		}
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	if res.Mem.Reads == 0 || res.Mem.DemandACTs == 0 {
		t.Fatalf("no memory traffic recorded: %+v", res.Mem)
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, quickConfig("mcf", core.NewDesign(core.ImpressP), TrackerGraphene))
	b := mustRun(t, quickConfig("mcf", core.NewDesign(core.ImpressP), TrackerGraphene))
	if a.WeightedIPCSum != b.WeightedIPCSum || a.Mem != b.Mem {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a.Mem, b.Mem)
	}
}

func TestSeedChangesResult(t *testing.T) {
	cfgA := quickConfig("mcf", core.NewDesign(core.NoRP), TrackerPARA)
	cfgB := cfgA
	cfgB.Seed = 99
	a, b := mustRun(t, cfgA), mustRun(t, cfgB)
	if a.Mem == b.Mem {
		t.Fatal("different seeds should perturb PARA mitigations / traces")
	}
}

func TestStreamIsMemoryBound(t *testing.T) {
	gcc := mustRun(t, quickConfig("gcc", core.NewDesign(core.NoRP), TrackerNone))
	copyRes := mustRun(t, quickConfig("copy", core.NewDesign(core.NoRP), TrackerNone))
	if copyRes.WeightedIPCSum >= gcc.WeightedIPCSum {
		t.Fatalf("copy (%.2f) should be far more memory-bound than gcc (%.2f)",
			copyRes.WeightedIPCSum, gcc.WeightedIPCSum)
	}
	// Stream misses the LLC almost always.
	if copyRes.LLCHitRate > 0.2 {
		t.Fatalf("copy LLC hit rate %v, expected streaming (<0.2)", copyRes.LLCHitRate)
	}
}

func TestTMROReducesRowHitsOnStream(t *testing.T) {
	base := mustRun(t, quickConfig("copy", core.NewDesign(core.NoRP), TrackerNone))
	lim := mustRun(t, quickConfig("copy",
		core.NewDesign(core.ExPress).WithTMRO(dram.Ns(36)), TrackerNone))
	rb := func(r Result) float64 {
		return float64(r.Mem.RowHits) / float64(r.Mem.RowHits+r.Mem.RowMisses)
	}
	if rb(lim) >= rb(base) {
		t.Fatalf("tMRO=36ns must cut row-buffer hits: %v vs %v", rb(lim), rb(base))
	}
	if lim.Mem.ForcedClosures == 0 {
		t.Fatal("tMRO produced no forced closures")
	}
}

func TestImpressPMatchesNoRPPerformance(t *testing.T) {
	// The headline perf claim: ImPress-P ~ No-RP on benign workloads.
	for _, name := range []string{"gcc", "copy"} {
		base := mustRun(t, quickConfig(name, core.NewDesign(core.NoRP), TrackerGraphene))
		p := mustRun(t, quickConfig(name, core.NewDesign(core.ImpressP), TrackerGraphene))
		rel := p.NormalizeTo(base)
		if rel < 0.95 || rel > 1.05 {
			t.Fatalf("%s: ImPress-P perf %.3f vs No-RP; want ~1.0", name, rel)
		}
	}
}

func TestMitigationsOccurUnderGraphene(t *testing.T) {
	// A streaming workload revisits each 8 KB row once per column group
	// (16 ACTs per row per pass under MOP-8); a very low threshold must
	// therefore trip Graphene mitigations.
	cfg := quickConfig("copy", core.NewDesign(core.NoRP), TrackerGraphene)
	cfg.DesignTRH = 30 // internal threshold 10 < 16 ACTs per row pass
	res := mustRun(t, cfg)
	if res.Mem.Mitigations == 0 {
		t.Fatalf("no mitigations at TRH=30 under copy: %+v", res.Mem)
	}
	if res.Mem.MitigativeACTs == 0 {
		t.Fatal("mitigations without mitigative ACTs")
	}
}

func TestMINTRunsWithRFM(t *testing.T) {
	cfg := quickConfig("copy", core.NewDesign(core.ImpressP), TrackerMINT)
	cfg.DesignTRH = 1600
	res := mustRun(t, cfg)
	if res.Mem.RFMs == 0 {
		t.Fatalf("in-DRAM tracker got no RFMs: %+v", res.Mem)
	}
}

func TestNormalizeToSelfIsOne(t *testing.T) {
	res := mustRun(t, quickConfig("gcc", core.NewDesign(core.NoRP), TrackerNone))
	if v := res.NormalizeTo(res); v != 1 {
		t.Fatalf("self-normalization = %v", v)
	}
}

func TestAllTrackersRun(t *testing.T) {
	for _, tr := range []TrackerKind{TrackerGraphene, TrackerPARA, TrackerMithril, TrackerMINT} {
		cfg := quickConfig("gcc", core.NewDesign(core.ImpressP), tr)
		if tr == TrackerMINT {
			cfg.DesignTRH = 1600
		}
		res := mustRun(t, cfg)
		if res.WeightedIPCSum <= 0 {
			t.Fatalf("%s: no progress", tr)
		}
	}
}

// TestConcurrentRunsAreIsolated runs the same seeded config from several
// goroutines alongside a serial reference and checks every result is
// identical: Run must not share RNG streams, generators or any other
// mutable state across calls (the contract the parallel experiment runner
// in internal/experiments depends on). Meaningful under -race.
func TestConcurrentRunsAreIsolated(t *testing.T) {
	cfg := quickConfig("gcc", core.NewDesign(core.ImpressP), TrackerPARA)
	want := mustRun(t, cfg)
	const goroutines = 4
	results := make([]Result, goroutines)
	errs := make([]error, goroutines)
	done := make(chan int, goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			results[i], errs[i] = RunContext(context.Background(), cfg)
			done <- i
		}()
	}
	for i := 0; i < goroutines; i++ {
		<-done
	}
	for i, got := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if got.Cycles != want.Cycles || got.WeightedIPCSum != want.WeightedIPCSum ||
			got.Mem != want.Mem {
			t.Fatalf("concurrent run %d diverged from serial reference:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
