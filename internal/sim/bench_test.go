package sim

import (
	"testing"

	"impress/internal/core"
	"impress/internal/trace"
)

// Simulator throughput benchmarks: core cycles simulated per second for a
// memory-light and a memory-bound workload. These bound the wall-clock
// cost of the figure reproductions.

func benchRun(b *testing.B, workload string, design core.Design, tracker TrackerKind) {
	b.Helper()
	w, err := trace.WorkloadByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	totalCycles := int64(0)
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(w, design, tracker)
		cfg.WarmupInstructions = 5_000
		cfg.RunInstructions = 25_000
		res := mustRun(b, cfg)
		totalCycles += res.Cycles
	}
	b.ReportMetric(float64(totalCycles)/float64(b.N), "cycles/run")
}

func BenchmarkSimGCCNoRP(b *testing.B) {
	benchRun(b, "gcc", core.NewDesign(core.NoRP), TrackerNone)
}

func BenchmarkSimCopyNoRP(b *testing.B) {
	benchRun(b, "copy", core.NewDesign(core.NoRP), TrackerNone)
}

func BenchmarkSimCopyImpressPGraphene(b *testing.B) {
	benchRun(b, "copy", core.NewDesign(core.ImpressP), TrackerGraphene)
}

func BenchmarkSimCopyImpressNGraphene(b *testing.B) {
	benchRun(b, "copy", core.NewDesign(core.ImpressN), TrackerGraphene)
}

func BenchmarkSimCopyMINT(b *testing.B) {
	w, _ := trace.WorkloadByName("copy")
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(w, core.NewDesign(core.ImpressP), TrackerMINT)
		cfg.DesignTRH = 1600
		cfg.WarmupInstructions = 5_000
		cfg.RunInstructions = 25_000
		mustRun(b, cfg)
	}
}

// --- Event-driven vs cycle-accurate clocking (per-run speedup) ---
//
// BenchmarkClock* pairs isolate the event-driven clock: the EventDriven/
// CycleAccurate ratio per workload is the idle-skipping win. The
// low-intensity workload (LLC-resident, 0.25 post-L2 accesses per KI) is
// the class the optimization targets — expect >=3x there; gcc (lowest
// MPKI of the paper's set) and mcf/copy bound the win on progressively
// busier memory systems, where the requirement is only "no slowdown".

// lowIntensityWorkload is an LLC-resident, very low-MPKI profile: long
// pure-compute stretches with a mostly quiescent DRAM subsystem.
func lowIntensityWorkload() trace.Workload {
	p := trace.Profile{
		Name: "lowmem", MemPerKI: 0.25, SeqRun: 4,
		FootprintLines: (8 << 20) / 64, WriteFrac: 0.3, ReuseFrac: 0.5, Streams: 2,
	}
	return trace.Workload{
		Name: "lowmem",
		NewGenerator: func(coreID int, seed uint64) trace.Generator {
			return trace.New(p, uint64(coreID)*(512<<20)/64, seed+uint64(coreID)*0x9e3779b97f4a7c15)
		},
	}
}

func benchClock(b *testing.B, w trace.Workload, clock ClockMode) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(w, core.NewDesign(core.NoRP), TrackerNone)
		cfg.Clock = clock
		cfg.WarmupInstructions = 50_000
		cfg.RunInstructions = 250_000
		mustRun(b, cfg)
	}
}

func namedWorkload(b *testing.B, name string) trace.Workload {
	b.Helper()
	w, err := trace.WorkloadByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkClockLowIntensityEventDriven(b *testing.B) {
	benchClock(b, lowIntensityWorkload(), ClockEventDriven)
}

func BenchmarkClockLowIntensityCycleAccurate(b *testing.B) {
	benchClock(b, lowIntensityWorkload(), ClockCycleAccurate)
}

func BenchmarkClockGCCEventDriven(b *testing.B) {
	benchClock(b, namedWorkload(b, "gcc"), ClockEventDriven)
}

func BenchmarkClockGCCCycleAccurate(b *testing.B) {
	benchClock(b, namedWorkload(b, "gcc"), ClockCycleAccurate)
}

func BenchmarkClockMcfEventDriven(b *testing.B) {
	benchClock(b, namedWorkload(b, "mcf"), ClockEventDriven)
}

func BenchmarkClockMcfCycleAccurate(b *testing.B) {
	benchClock(b, namedWorkload(b, "mcf"), ClockCycleAccurate)
}

func BenchmarkClockCopyEventDriven(b *testing.B) {
	benchClock(b, namedWorkload(b, "copy"), ClockEventDriven)
}

func BenchmarkClockCopyCycleAccurate(b *testing.B) {
	benchClock(b, namedWorkload(b, "copy"), ClockCycleAccurate)
}
