package experiments

import (
	"context"
	"fmt"
	"runtime"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/security"
	"impress/internal/stats"
	"impress/internal/trackers"
)

// Extension experiments beyond the paper's figures: the Section VI-F PRAC
// composition and the Section VII DSAC quantitative comparison.

// PRACTable demonstrates the paper's Section VI-F claim: ImPress composes
// with Per-Row Activation Counting by adding 7 fractional bits to the
// in-array counter, containing Row-Press at the full threshold with no
// SRAM entries at all.
func PRACTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "prac", Title: "PRAC + ImPress-P (paper Section VI-F extension)",
		Header: []string{"Config", "Counter bits/row", "RH peak damage", "RP(tREFI) peak damage", "verdict"},
	}
	tm := dram.DDR5()
	factory := func(trh float64) trackers.Tracker { return trackers.NewPRAC(trh) }
	for _, cfg := range []struct {
		name   string
		design core.Design
		frac   int
	}{
		{"prac (no-rp)", core.NewDesign(core.NoRP), 0},
		{"prac + impress-p", core.NewDesign(core.ImpressP), clm.FracBits},
	} {
		sc := security.Config{
			Design: cfg.design, DesignTRH: 4000,
			AlphaTrue: clm.AlphaLongDuration, RFMTH: 80, Tracker: factory,
		}
		rh, err := security.RunContext(ctx, sc, &attack.Rowhammer{Row: 1 << 20, Timings: tm})
		if err != nil {
			return nil, err
		}
		rp, err := security.RunContext(ctx, sc, &attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm})
		if err != nil {
			return nil, err
		}
		verdict := "contained"
		if rp.MaxDamage >= 4000 {
			verdict = "BROKEN by Row-Press"
		}
		t.Rows = append(t.Rows, []string{
			cfg.name,
			fmt.Sprintf("%d", trackers.PRACStorageBitsPerRow(4000, cfg.frac)),
			f1(rh.MaxDamage), f1(rp.MaxDamage), verdict,
		})
	}
	t.Notes = append(t.Notes,
		"PRAC stores counters in the DRAM array (no SRAM budget); ImPress-P widens each by 7 bits")
	return t, nil
}

// RelatedWorkDSAC quantifies Section VII's criticism of DSAC's logarithmic
// time-weighting: it under-counts Row-Press damage by an amount that grows
// with row-open time (~15x at 256 tRC).
func RelatedWorkDSAC() *Table {
	t := &Table{
		ID: "dsac", Title: "DSAC log-weight vs required Row-Press weight (paper Section VII)",
		Header: []string{"tON (tRC)", "DSAC weight", "required (a=0.48)", "underestimation"},
	}
	for _, x := range []float64{4, 16, 64, 256, 1024} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", x),
			f1(clm.DSACWeight(x)),
			f1(clm.AlphaLongDuration * x),
			fmt.Sprintf("%.1fx", clm.DSACUnderestimation(x)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: at tON = 256 tRC DSAC weighs ~8 where ~122 is required (15x underestimation)")
	return t
}

// AblationRFMPacing shows why RFM must be paced on the weighted EACT
// stream rather than raw ACT counts (DESIGN.md design-choice ablation).
// Its harness runs execute concurrently up to parallelism (0 =
// GOMAXPROCS, 1 = fully serial); output is identical at every level.
func AblationRFMPacing(ctx context.Context, parallelism int) (*Table, error) {
	t := &Table{
		ID: "ablation-rfm", Title: "Ablation: RFM pacing on EACT vs raw ACT counts (MINT + ImPress-P)",
		Header: []string{"RFM pacing", "RFMs issued", "peak damage", "verdict"},
	}
	tm := dram.DDR5()
	mintTRH := trackers.MINTToleratedTRH(80)
	configs := []struct {
		name string
		raw  bool
		seed uint64
	}{
		{"weighted EACT (design)", false, 51},
		{"raw ACT count (ablated)", true, 51},
	}
	// The harness runs are independent (each owns its seeded RNG chain);
	// run them over a bounded worker pool and assemble rows in declared
	// order so output is identical at every parallelism level.
	workers := parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rows := make([][]string, len(configs))
	order := make([]int, len(configs))
	for i := range order {
		order[i] = i
	}
	err := forEach(ctx, workers, order, func(i int) error {
		cfg := configs[i]
		seed := cfg.seed
		sc := security.Config{
			Design: core.NewDesign(core.ImpressP), DesignTRH: mintTRH,
			AlphaTrue: 1, RFMTH: 80, RFMPaceOnRawACTs: cfg.raw,
			Tracker: func(trh float64) trackers.Tracker {
				seed++
				return trackers.NewMINT(80, stats.NewRand(seed))
			},
		}
		res, err := security.RunContext(ctx, sc, &attack.RowPress{Row: 1 << 20, TON: tm.TONMax, Timings: tm})
		if err != nil {
			return err
		}
		verdict := "contained"
		if res.MaxDamage >= mintTRH {
			verdict = "BROKEN (tracker starved)"
		}
		rows[i] = []string{cfg.name, fmt.Sprintf("%d", res.RFMs), f1(res.MaxDamage), verdict}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"pacing RFM on raw ACTs lets a pressing attacker starve in-DRAM trackers of mitigation windows")
	return t, nil
}
