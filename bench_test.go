// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §3 maps each to its experiment). Analytical
// benchmarks regenerate their result from the models every iteration; the
// simulation-backed figure benchmarks run the performance simulator at a
// reduced benchmark scale (two representative workloads, short runs) so
// `go test -bench=.` completes in minutes while exercising the identical
// code path as the full reproduction.
package impress_test

import (
	"context"
	"io"
	"testing"

	"impress"
	"impress/internal/experiments"
)

// benchScale is a trimmed scale for benchmark iterations.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Name: "bench", Warmup: 10_000, Run: 50_000,
		Workloads: []string{"gcc", "copy"},
	}
}

// BenchmarkExperiments regenerates each registered experiment, one
// sub-benchmark per ID. Every iteration builds through a fresh runner,
// so simulation-backed tables re-simulate their declared specs.
func BenchmarkExperiments(b *testing.B) {
	for _, d := range experiments.Definitions() {
		b.Run(d.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := d.Build(context.Background(), experiments.NewRunner(benchScale()))
				if err != nil {
					b.Fatal(err)
				}
				if len(t.Rows) == 0 {
					b.Fatalf("%s produced no rows", t.ID)
				}
				t.Render(io.Discard)
			}
		})
	}
}

// --- Parallel run scheduler ---

// prefetchBenchSpecs is a fixed spec list (a Fig. 13-like sweep over the
// bench workloads) used to compare serial and parallel prefetching.
func prefetchBenchSpecs(b *testing.B, r *experiments.Runner) []experiments.RunSpec {
	ws, err := r.Workloads()
	if err != nil {
		b.Fatal(err)
	}
	var specs []experiments.RunSpec
	for _, w := range ws {
		for _, tracker := range []impress.TrackerKind{impress.TrackerGraphene, impress.TrackerPARA} {
			for _, kind := range []impress.DesignKind{impress.NoRP, impress.ExPress, impress.ImpressP} {
				specs = append(specs, experiments.RunSpec{
					Workload: w, Design: impress.NewDesign(kind), Tracker: tracker,
					DesignTRH: experiments.TRH(4000), RFMTH: experiments.RFM(80),
				})
			}
		}
	}
	return specs
}

func benchmarkPrefetch(b *testing.B, parallelism int) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale())
		r.Parallelism = parallelism
		if err := r.Prefetch(context.Background(), prefetchBenchSpecs(b, r)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefetchSerial is the single-worker baseline for the scheduler.
func BenchmarkPrefetchSerial(b *testing.B) { benchmarkPrefetch(b, 1) }

// BenchmarkPrefetchParallel fans the same spec list over GOMAXPROCS
// workers; the serial/parallel ratio is the scheduler's speedup.
func BenchmarkPrefetchParallel(b *testing.B) { benchmarkPrefetch(b, 0) }

// --- Per-run clocking ---

// benchmarkRunClock measures one full simulation under the given clock;
// the EventDriven/CycleAccurate pair's ratio is the intra-run speedup of
// the event-driven clock on the paper's lowest-MPKI workload (see
// internal/sim's BenchmarkClock* for the full workload sweep, including
// the LLC-resident low-intensity profile where the win is largest).
func benchmarkRunClock(b *testing.B, clock impress.SimClockMode) {
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	lab, err := impress.NewLab()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := impress.DefaultSimConfig(w, impress.NewDesign(impress.NoRP), impress.TrackerNone)
		cfg.WarmupInstructions = 10_000
		cfg.RunInstructions = 50_000
		cfg.Clock = clock
		if _, err := lab.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunEventDriven(b *testing.B)   { benchmarkRunClock(b, impress.SimClockEventDriven) }
func BenchmarkRunCycleAccurate(b *testing.B) { benchmarkRunClock(b, impress.SimClockCycleAccurate) }
