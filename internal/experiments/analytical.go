package experiments

import (
	"context"
	"fmt"
	"math"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/security"
	"impress/internal/stats"
	"impress/internal/trackers"
)

// TableI reproduces the paper's DRAM timing table.
func TableI() *Table {
	tm := dram.DDR5()
	rows := [][]string{
		{"tACT", "Time for performing ACT", fmt.Sprintf("%d ns", tm.TACT.ToNs())},
		{"tPRE", "Time to precharge an open row", fmt.Sprintf("%d ns", tm.TPRE.ToNs())},
		{"tRAS", "Minimum time a row must be kept open", fmt.Sprintf("%d ns", tm.TRAS.ToNs())},
		{"tRC", "Time between successive ACTs to a bank", fmt.Sprintf("%d ns", tm.TRC.ToNs())},
		{"tREFW", "Refresh period", fmt.Sprintf("%d ms", tm.TREFW.ToNs()/1e6)},
		{"tREFI", "Time between successive REF commands", fmt.Sprintf("%d ns", tm.TREFI.ToNs())},
		{"tRFC", "Execution time for REF command", fmt.Sprintf("%d ns", tm.TRFC.ToNs())},
		{"tONMax", "Max row-open time per DDR5", fmt.Sprintf("%.1f us", float64(tm.TONMax.ToNs())/1000)},
	}
	return &Table{
		ID: "table1", Title: "DRAM timings (paper Table I)",
		Header: []string{"Parameter", "Description", "Value"},
		Rows:   rows,
	}
}

// TableIII reproduces the qualitative comparison of ExPress, ImPress-N and
// ImPress-P, with the quantitative cells computed from the models.
func TableIII() *Table {
	const trh = 4000
	nAlpha1 := core.NewDesign(core.ImpressN)
	ex := core.NewDesign(core.ExPress)
	rows := [][]string{
		{"Puts limit on tON", "Yes", "No", "No"},
		{"Affects threshold (T*)",
			fmt.Sprintf("Yes (%.2gx)", trh/ex.TrackerTRH(trh)),
			fmt.Sprintf("Yes (%.2gx)", trh/nAlpha1.TrackerTRH(trh)),
			"No (1x)"},
		{"Performance overheads", "High", "Medium", "Low"},
		{"More tracking entries", "Yes (up to 2x)", "Yes (up to 2x)", "No (1x)"},
		{"Wider tracking entries", "No", "No", "Yes (minor)"},
		{"In-DRAM trackers", "Incompatible", "Compatible", "Compatible"},
		{"Device dependency", "Yes (alpha)", "Yes (alpha)", "No"},
	}
	return &Table{
		ID: "table3", Title: "ExPress vs ImPress-N vs ImPress-P (paper Table III)",
		Header: []string{"Property", "ExPress", "ImPress-N", "ImPress-P"},
		Rows:   rows,
	}
}

// Figure4 regenerates the relative-threshold-vs-tMRO curve.
func Figure4() *Table {
	tm := dram.DDR5()
	t := &Table{
		ID: "fig4", Title: "Relative threshold T* vs tMRO (paper Fig. 4)",
		Header: []string{"tMRO (ns)", "T*/TRH (empirical)", "T*/TRH (CLM a=0.35)"},
	}
	m := clm.New(clm.AlphaShortDuration)
	for ns := int64(36); ns <= 636; ns += 30 {
		tMRO := dram.Ns(ns)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", ns),
			f3(clm.ExpressThreshold(tm, tMRO)),
			f3(clm.ExpressThresholdCLM(m, tMRO)),
		})
	}
	t.Notes = append(t.Notes,
		"paper anchor: T*(186ns) = 0.62; the CLM column is the conservative bound a designer provisions for")
	return t
}

// Figure6 regenerates the Rowhammer charge-loss model: a perfect linear
// attack (1 unit of damage per tRC).
func Figure6() *Table {
	t := &Table{
		ID: "fig6", Title: "Relative charge-loss model for Rowhammer (paper Fig. 6)",
		Header: []string{"Time (tRC)", "Total charge loss"},
	}
	for _, k := range []int64{1, 2, 4, 8, 16, 1024, 4000} {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k), f1(clm.RowhammerTCL(k))})
	}
	t.Notes = append(t.Notes, "RH is linear by construction: TCL(K) = K")
	return t
}

// Figure7 regenerates the long-duration Row-Press charge loss for the
// three vendor device populations against the alpha = 0.48 CLM envelope.
func Figure7() *Table {
	t := &Table{
		ID: "fig7", Title: "Long-duration RP total charge loss vs CLM a=0.48 (paper Fig. 7)",
		Header: []string{"Vendor", "Device", "Time (tRC)", "Device TCL", "CLM TCL", "Rowhammer TCL"},
	}
	model := clm.New(clm.AlphaLongDuration)
	for _, d := range clm.Devices() {
		for _, tt := range clm.LongDurationTimesTRC() {
			x := float64(tt - 1)
			t.Rows = append(t.Rows, []string{
				string(d.Vendor), fmt.Sprintf("#%d", d.Index), fmt.Sprintf("%d", tt),
				f1(d.TCL(x)), f1(1 + model.Alpha*x), f1(float64(tt)),
			})
		}
	}
	worst := clm.VerifyConservative(model, clm.Devices(), clm.LongDurationTimesTRC())
	t.Notes = append(t.Notes,
		fmt.Sprintf("CLM a=0.48 covers all %d devices (worst margin %+.1f units)", len(clm.Devices()), worst))
	return t
}

// Figure8 regenerates the short-duration charge-loss characterization:
// data points, power-law curve fit, and the CLM at alpha = 0.35.
func Figure8() *Table {
	t := &Table{
		ID: "fig8", Title: "Short-duration RP charge loss: data, curve fit, CLM (paper Fig. 8)",
		Header: []string{"Attack time (tRC)", "RP data", "Curve fit", "CLM a=0.35", "Rowhammer"},
	}
	pts := clm.ShortDurationData()
	var xs, tcls []float64
	for _, p := range pts {
		xs = append(xs, float64(p.AttackTimeTRC-1))
		tcls = append(tcls, p.TCL)
	}
	a, b := clm.FitPowerLaw(xs, tcls)
	alpha := clm.FitConservativeAlpha(xs, tcls)
	for _, p := range pts {
		x := float64(p.AttackTimeTRC - 1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.AttackTimeTRC),
			f2(p.TCL), f2(1 + a*powf(x, b)), f2(1 + alpha*x), f2(float64(p.AttackTimeTRC)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("conservative fit alpha = %.2f (paper: 0.35); power-law fit a=%.2f b=%.2f", alpha, a, b))
	return t
}

// Figure12 regenerates the effective threshold vs fractional counter bits.
func Figure12() *Table {
	t := &Table{
		ID: "fig12", Title: "Effective threshold vs fractional EACT bits (paper Fig. 12)",
		Header: []string{"Fractional bits", "T*/TRH"},
	}
	for b := 0; b <= 7; b++ {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", b), f3(clm.FracBitsEffectiveThreshold(b))})
	}
	t.Notes = append(t.Notes, "paper: b=7 exact, b=6 0.985, b=5 0.97, b=4 0.94, b=0 0.5 (ImPress-N)")
	return t
}

// StorageTable regenerates the Section VI-C storage comparison over the
// full tracker registry — every registered tracker contributes rows, so
// a tracker added to the zoo cannot silently skip the storage analysis
// (the zoo exhaustiveness test asserts membership).
func StorageTable() *Table {
	t := &Table{
		ID: "storage", Title: "Tracker storage (paper Section VI-C / Appendix A)",
		Header: []string{"Tracker", "Design", "Entries/bank", "Bits/entry", "KB/channel", "vs No-RP"},
	}
	for _, info := range trackers.Registry() {
		switch info.Name {
		case "mint":
			t.Rows = append(t.Rows,
				[]string{"mint", "no-rp", "1", "-", fmt.Sprintf("%d B/bank", security.MINTStorageBytes(80, 0)), "1.00"},
				[]string{"mint", "impress-p", "1", "-", fmt.Sprintf("%d B/bank", security.MINTStorageBytes(80, clm.FracBits)), "1.25"},
			)
		case "para":
			t.Rows = append(t.Rows,
				[]string{"para", "any", "0", "-", fmt.Sprintf("%d b/bank (stateless)", security.PARAStorageBits()), "1.00"})
		default:
			for _, row := range security.StorageComparison(info.Name, 4000, 80, 1) {
				t.Rows = append(t.Rows, []string{
					info.Name, row.Design,
					fmt.Sprintf("%d", row.Storage.EntriesPerBank),
					fmt.Sprintf("%d", row.Storage.BitsPerEntry),
					f1(row.Storage.ChannelKB),
					f2(row.RelativeToNoRP),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper anchors: Graphene 448 entries/115KB at TRH=4K doubling under ExPress/ImPress-N (alpha=1);",
		"Mithril 383 entries/86KB growing ~4x; ImPress-P keeps entry counts, widening entries ~25%; MINT 4B -> 5B",
		"zoo extensions: Hydra's GCT is threshold-independent (its row counters live in DRAM);",
		"ABACuS sizes its shared-counter table as ceil(42500/TRH) entries per bank")
	return t
}

// Figure18 regenerates the Graphene attack-slowdown analysis (analytic
// Equation 9 plus harness measurements).
func Figure18(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "fig18", Title: "Slowdown of ImPress-P with Graphene under combined RH+RP attack (paper Fig. 18)",
		Header: []string{"K (tRC of RP)", "TRH=1000", "TRH=2000", "TRH=4000", "measured TRH=4000"},
	}
	tm := dram.DDR5()
	cfg := security.Config{
		Design:    core.NewDesign(core.ImpressP),
		DesignTRH: 4000,
		AlphaTrue: 1,
		Tracker:   func(trh float64) trackers.Tracker { return trackers.NewGraphene(trh) },
	}
	for _, k := range []int{0, 10, 20, 40, 60, 80, 100} {
		measured, err := security.RunContext(ctx, cfg, &attack.CombinedK{Row: 1 << 20, K: int64(k), Timings: tm})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			pct(security.GrapheneAttackSlowdown(1000, k)),
			pct(security.GrapheneAttackSlowdown(2000, k)),
			pct(security.GrapheneAttackSlowdown(4000, k)),
			pct(measured.Slowdown()),
		})
	}
	t.Notes = append(t.Notes,
		"Equation 9: slowdown = 8/TRH independent of K; the measured column uses the single-bank harness",
		"(measured level sits between 8/TRH and 12/TRH because the provisioned tracker mitigates at TRH/3)")
	return t, nil
}

// Figure19 regenerates the PARA attack-slowdown analysis (Equation 10).
func Figure19() *Table {
	t := &Table{
		ID: "fig19", Title: "Slowdown of ImPress-P with PARA under combined RH+RP attack (paper Fig. 19)",
		Header: []string{"K (tRC of RP)", "TRH=1000", "TRH=2000", "TRH=4000"},
	}
	for _, k := range []int{0, 10, 20, 30, 40, 60, 80, 100} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			pct(security.PARAAttackSlowdown(1000, k)),
			pct(security.PARAAttackSlowdown(2000, k)),
			pct(security.PARAAttackSlowdown(4000, k)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Equation 10; saturation knee at K = %d for TRH=4000 (paper: PARA overhead 4.76%% at K=0)",
			security.PARASlowdownCriticalK(4000)))
	return t
}

// ImpressNWorstCase validates Equation 5 empirically: the decoy pattern's
// peak damage relative to pure Rowhammer equals 1 + alpha.
func ImpressNWorstCase(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "eq5", Title: "ImPress-N unmitigated Row-Press (paper Fig. 10 / Equation 5)",
		Header: []string{"device alpha", "RH peak damage", "decoy peak damage", "ratio", "1+alpha"},
	}
	tm := dram.DDR5()
	for _, alpha := range []float64{0.35, 0.48, 1.0} {
		cfg := security.Config{
			Design:    core.NewDesign(core.ImpressN),
			DesignTRH: 4000,
			AlphaTrue: alpha,
			Tracker:   func(trh float64) trackers.Tracker { return trackers.NewGraphene(trh) },
		}
		rh, err := security.RunContext(ctx, cfg, &attack.Rowhammer{Row: 1 << 20, Timings: tm})
		if err != nil {
			return nil, err
		}
		decoy, err := security.RunContext(ctx, cfg, &attack.Decoy{Row: 1 << 20, DecoyRow: 1 << 24, Spread: 8192, Timings: tm})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", alpha),
			f1(rh.MaxDamage), f1(decoy.MaxDamage),
			f3(decoy.MaxDamage / rh.MaxDamage), f3(1 + alpha),
		})
	}
	t.Notes = append(t.Notes, "Equation 5: T* = TRH/(1+alpha); the measured ratio matches 1+alpha")
	return t, nil
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

func powf(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}

// SecuritySummary runs the headline security matrix: which (tracker,
// defense) pairs contain which attacks within TRH.
func SecuritySummary(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "security", Title: "Peak victim damage (TRH units, TRH=4000; >=4000 means a bit flip)",
		Header: []string{"Tracker", "Defense", "Rowhammer", "RowPress(tREFI)", "RowPress(tONMax)", "Decoy"},
	}
	tm := dram.DDR5()
	type tf struct {
		name    string
		rfmth   int
		trh     float64
		factory security.TrackerFactory
	}
	// The matrix covers the full tracker registry (the zoo exhaustiveness
	// test asserts membership). Each probabilistic tracker owns a private
	// seed counter so adding a registry entry never perturbs another
	// tracker's RNG draws.
	var factories []tf
	for _, info := range trackers.Registry() {
		info := info
		rfmth, trh := 0, float64(4000)
		if info.InDRAM {
			rfmth = 80
		}
		if info.Name == "mint" {
			trh = trackers.MINTToleratedTRH(80)
		}
		seed := uint64(42)
		factories = append(factories, tf{info.Name, rfmth, trh, func(t float64) trackers.Tracker {
			seed++
			return info.New(t, rfmth, stats.NewRand(seed))
		}})
	}
	designs := []core.Design{
		core.NewDesign(core.NoRP),
		core.NewDesign(core.ExPress),
		core.NewDesign(core.ImpressN),
		core.NewDesign(core.ImpressP),
	}
	for _, f := range factories {
		for _, d := range designs {
			if d.Kind == core.ExPress && f.rfmth > 0 {
				continue // ExPress is incompatible with in-DRAM trackers
			}
			cfg := security.Config{
				Design: d, DesignTRH: f.trh, AlphaTrue: clm.AlphaLongDuration,
				RFMTH: f.rfmth, Tracker: f.factory,
			}
			row := []string{f.name, d.Kind.String()}
			for _, p := range []attack.Pattern{
				&attack.Rowhammer{Row: 1 << 20, Timings: tm},
				&attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm},
				&attack.RowPress{Row: 1 << 20, TON: tm.TONMax, Timings: tm},
				&attack.Decoy{Row: 1 << 20, DecoyRow: 1 << 24, Spread: 8192, Timings: tm},
			} {
				res, err := security.RunContext(ctx, cfg, p)
				if err != nil {
					return nil, err
				}
				cell := f1(res.MaxDamage)
				if res.MaxDamage >= f.trh {
					cell += " FLIP"
				}
				row = append(row, cell)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"No-RP contains Rowhammer but is broken by Row-Press; ImPress-P contains every pattern at full TRH")
	return t, nil
}
