package security

import (
	"testing"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/trackers"
)

// Harness microbenchmarks: one refresh window of a pattern against
// ImPress-P and a counter tracker, the unit of work behind the security,
// eq5 and prac tables. The decoy rotates over far more rows than any
// table holds, so every decoy access evicts.

func abacusFactory() TrackerFactory {
	return func(trh float64) trackers.Tracker { return trackers.NewABACuS(trh) }
}

func rowhammer(tm dram.Timings) attack.Pattern {
	return &attack.Rowhammer{Row: 1 << 20, Timings: tm}
}

func decoy(tm dram.Timings) attack.Pattern {
	return &attack.Decoy{Row: 1 << 20, DecoyRow: 1 << 24, Spread: 8192, Timings: tm}
}

func benchHarness(b *testing.B, tracker TrackerFactory, pattern func(dram.Timings) attack.Pattern) {
	cfg := Config{
		Design: core.NewDesign(core.ImpressP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration, RFMTH: 80, Tracker: tracker,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(b, cfg, pattern(cfg.Design.Timings))
	}
}

func BenchmarkHarnessGrapheneRowhammer(b *testing.B) {
	benchHarness(b, grapheneFactory(), rowhammer)
}

func BenchmarkHarnessGrapheneDecoy(b *testing.B) {
	benchHarness(b, grapheneFactory(), decoy)
}

func BenchmarkHarnessMithrilRowhammer(b *testing.B) {
	benchHarness(b, mithrilFactory(80), rowhammer)
}

func BenchmarkHarnessMithrilDecoy(b *testing.B) {
	benchHarness(b, mithrilFactory(80), decoy)
}

func BenchmarkHarnessAbacusRowhammer(b *testing.B) {
	benchHarness(b, abacusFactory(), rowhammer)
}

func BenchmarkHarnessAbacusDecoy(b *testing.B) {
	benchHarness(b, abacusFactory(), decoy)
}

// TestHarnessAllocationsIndependentOfLength is the harness's allocation
// gate: a run allocates only its set-up (tracker, policy, damage pages
// for the rows it touches), never per access, so a Graphene decoy run
// four times as long — every decoy access evicting, every decoy row
// touched in both — allocates exactly as much.
func TestHarnessAllocationsIndependentOfLength(t *testing.T) {
	tm := dram.DDR5()
	allocs := func(accesses dram.Tick) float64 {
		cfg := Config{
			Design: core.NewDesign(core.ImpressP), DesignTRH: designTRH,
			AlphaTrue: clm.AlphaLongDuration, Tracker: grapheneFactory(),
			Duration: accesses * tm.TRC,
		}
		return testing.AllocsPerRun(3, func() {
			run(t, cfg, &attack.Decoy{Row: 1 << 20, DecoyRow: 1 << 24, Spread: 1024, Timings: tm})
		})
	}
	n, n4 := allocs(20000), allocs(80000)
	if n != n4 {
		t.Fatalf("allocations grow with run length: %v at N, %v at 4N", n, n4)
	}
}
