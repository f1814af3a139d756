package security

import (
	"testing"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/stats"
	"impress/internal/trackers"
)

func seededPARA() SeededTrackerFactory {
	return func(trh float64, seed uint64) TrackerFactory {
		return func(float64) trackers.Tracker {
			return trackers.NewPARA(trh, stats.NewRand(seed))
		}
	}
}

func seededMINT(rfmth int) SeededTrackerFactory {
	return func(_ float64, seed uint64) TrackerFactory {
		return func(float64) trackers.Tracker {
			return trackers.NewMINT(rfmth, stats.NewRand(seed))
		}
	}
}

func TestMonteCarloPARARowhammerReliable(t *testing.T) {
	tm := dram.DDR5()
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration,
		Duration:  tm.TREFW / 4, // shorter window keeps 30 trials fast
	}
	res := MonteCarlo(cfg,
		func() attack.Pattern { return &attack.Rowhammer{Row: 1 << 20, Timings: tm} },
		seededPARA(), 30, 1)
	if res.Failures != 0 {
		t.Fatalf("PARA at p=1/184 failed %d/%d RH trials", res.Failures, res.Trials)
	}
	// The damage distribution should sit well below TRH: p=1/184 means
	// typical unmitigated streaks of a few hundred activations.
	if p99 := res.DamagePercentile(99); p99 >= designTRH {
		t.Fatalf("P99 damage %v reaches TRH", p99)
	}
	if res.MaxDamage <= 0 {
		t.Fatal("no damage recorded at all")
	}
}

func TestMonteCarloPARARowPressUnreliable(t *testing.T) {
	tm := dram.DDR5()
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration,
		Duration:  tm.TREFW / 4,
	}
	res := MonteCarlo(cfg,
		func() attack.Pattern { return &attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm} },
		seededPARA(), 20, 2)
	if res.FailureFraction() < 0.9 {
		t.Fatalf("Row-Press should break nearly every No-RP PARA trial: %v", res.FailureFraction())
	}
}

func TestMonteCarloPARAImpressPRestoresReliability(t *testing.T) {
	tm := dram.DDR5()
	cfg := Config{
		Design: core.NewDesign(core.ImpressP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration,
		Duration:  tm.TREFW / 4,
	}
	res := MonteCarlo(cfg,
		func() attack.Pattern { return &attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm} },
		seededPARA(), 30, 3)
	if res.Failures != 0 {
		t.Fatalf("ImPress-P PARA failed %d/%d RP trials", res.Failures, res.Trials)
	}
}

func TestMonteCarloMINT(t *testing.T) {
	tm := dram.DDR5()
	mintTRH := trackers.MINTToleratedTRH(80)
	cfg := Config{
		Design: core.NewDesign(core.ImpressP), DesignTRH: mintTRH,
		AlphaTrue: 1, RFMTH: 80,
		Duration: tm.TREFW / 4,
	}
	res := MonteCarlo(cfg,
		func() attack.Pattern { return &attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm} },
		seededMINT(80), 20, 4)
	if res.Failures != 0 {
		t.Fatalf("ImPress-P MINT failed %d/%d trials", res.Failures, res.Trials)
	}
}

func TestManySidedContainedByProvisioning(t *testing.T) {
	// A TRRespass-style many-sided spread over more rows than Graphene
	// has entries dilutes per-row damage below the threshold: the
	// Misra-Gries sizing (entries ~ W/internal-threshold) is exactly what
	// guarantees this.
	tm := dram.DDR5()
	g := trackers.GrapheneEntries(designTRH)
	rows := make([]int64, g+2)
	for i := range rows {
		rows[i] = int64(1<<20 + i*8) // spaced so victim sets never overlap
	}
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration,
		Tracker:   grapheneFactory(),
	}
	res := run(t, cfg, &attack.ManySided{Rows: rows, Timings: tm})
	if res.MaxDamage >= designTRH {
		t.Fatalf("many-sided spread breached Graphene: %v", res.MaxDamage)
	}
}

func TestMonteCarloDeterministicGivenSeed(t *testing.T) {
	tm := dram.DDR5()
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: 1, Duration: tm.TREFW / 8,
	}
	mk := func() MonteCarloResult {
		return MonteCarlo(cfg,
			func() attack.Pattern { return &attack.Rowhammer{Row: 5, Timings: tm} },
			seededPARA(), 5, 7)
	}
	a, b := mk(), mk()
	if a.MaxDamage != b.MaxDamage || a.Failures != b.Failures {
		t.Fatal("Monte-Carlo not reproducible for a fixed base seed")
	}
}
