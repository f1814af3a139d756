package experiments

import (
	"fmt"

	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/energy"
	"impress/internal/sim"
	"impress/internal/stats"
	"impress/internal/trace"
	"impress/internal/trackers"
)

// tMROSweepNs is the paper's tMRO sweep (Figures 3 and 5).
var tMROSweepNs = []int64{36, 66, 96, 186, 336, 636}

// TableII reproduces the baseline system configuration table.
func TableII() *Table {
	return &Table{
		ID: "table2", Title: "Baseline system configuration (paper Table II)",
		Header: []string{"Component", "Value"},
		Rows: [][]string{
			{"Out-of-order cores", "8 cores at 4 GHz"},
			{"Width, ROB size", "6-wide, 352"},
			{"Last-level cache (shared)", "16 MB, 16-way, 64 B lines, SRRIP"},
			{"Memory size", "64 GB DDR5"},
			{"Channels", "2 (32 GB DIMM per channel)"},
			{"Banks x Ranks x Sub-channels", "32 x 1 x 2"},
			{"Memory mapping", "Minimalist Open Page (8 lines)"},
			{"RFM latency / RFMTH", "205 ns / 80"},
		},
	}
}

// fig3Spec is the tracker-less ExPress run at one tMRO point.
func fig3Spec(w trace.Workload, ns int64) RunSpec {
	design := core.NewDesign(core.ExPress).WithTMRO(dram.Ns(ns)).WithEmpiricalThreshold()
	return RunSpec{Workload: w, Design: design, Tracker: sim.TrackerNone}
}

// figure3Specs declares every simulation fig3 needs.
func figure3Specs(ws []trace.Workload) []RunSpec {
	var specs []RunSpec
	for _, w := range ws {
		specs = append(specs, baselineSpec(w))
		for _, ns := range tMROSweepNs {
			specs = append(specs, fig3Spec(w, ns))
		}
	}
	return specs
}

// figure3 regenerates the per-workload performance impact of limiting
// row-open time to tMRO (no Rowhammer tracker; pure row-policy effect).
func figure3(r *Runner, ws []trace.Workload) *Table {
	t := &Table{
		ID: "fig3", Title: "Normalized performance vs tMRO (paper Fig. 3)",
		Header: []string{"Workload"},
	}
	for _, ns := range tMROSweepNs {
		t.Header = append(t.Header, fmt.Sprintf("tMRO=%dns", ns))
	}
	perTMRO := make([]map[string]float64, len(tMROSweepNs))
	for i := range perTMRO {
		perTMRO[i] = map[string]float64{}
	}
	for _, w := range ws {
		base := r.result(baselineSpec(w))
		row := []string{w.Name}
		for i, ns := range tMROSweepNs {
			res := r.result(fig3Spec(w, ns))
			v := res.NormalizeTo(base)
			perTMRO[i][w.Name] = v
			row = append(row, f3(v))
		}
		t.Rows = append(t.Rows, row)
	}
	specRow, streamRow := []string{"SPEC (GMean)"}, []string{"STREAM (GMean)"}
	for i := range tMROSweepNs {
		sg, tg := geoMeanBy(ws, perTMRO[i])
		specRow = append(specRow, f3(sg))
		streamRow = append(streamRow, f3(tg))
	}
	t.Rows = append(t.Rows, specRow, streamRow)
	t.Notes = append(t.Notes,
		"paper shape: SPEC geomean insensitive to tMRO; STREAM suffers at low tMRO (~10% at 66ns)")
	return t
}

// fig5Spec is the ExPress run at one tMRO point under a tracker.
func fig5Spec(w trace.Workload, tracker sim.TrackerKind, ns int64) RunSpec {
	design := core.NewDesign(core.ExPress).WithTMRO(dram.Ns(ns)).WithEmpiricalThreshold()
	return RunSpec{Workload: w, Design: design, Tracker: tracker, DesignTRH: TRH(4000)}
}

// figure5Specs declares every simulation fig5 needs.
func figure5Specs(ws []trace.Workload) []RunSpec {
	var specs []RunSpec
	for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
		for _, w := range ws {
			specs = append(specs, noRPSpec(w, tracker, 4000, 80))
			for _, ns := range tMROSweepNs {
				specs = append(specs, fig5Spec(w, tracker, ns))
			}
		}
	}
	return specs
}

// figure5 regenerates the Graphene/PARA performance as tMRO varies under
// ExPress with the characterized T*(tMRO) retuning.
func figure5(r *Runner, ws []trace.Workload) *Table {
	t := &Table{
		ID: "fig5", Title: "Graphene and PARA performance vs tMRO under ExPress (paper Fig. 5)",
		Header: []string{"Tracker", "Class"},
	}
	for _, ns := range tMROSweepNs {
		t.Header = append(t.Header, fmt.Sprintf("tMRO=%dns", ns))
	}
	t.Header = append(t.Header, "no-tMRO")
	for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
		specRow := []string{string(tracker), "SPEC"}
		streamRow := []string{string(tracker), "STREAM"}
		cols := make([]map[string]float64, len(tMROSweepNs)+1)
		for i := range cols {
			cols[i] = map[string]float64{}
		}
		for _, w := range ws {
			base := r.result(noRPSpec(w, tracker, 4000, 80))
			for i, ns := range tMROSweepNs {
				res := r.result(fig5Spec(w, tracker, ns))
				cols[i][w.Name] = res.NormalizeTo(base)
			}
			// "no-tMRO" is the No-RP configuration itself (tON unlimited).
			cols[len(tMROSweepNs)][w.Name] = 1.0
		}
		for i := range cols {
			sg, tg := geoMeanBy(ws, cols[i])
			specRow = append(specRow, f3(sg))
			streamRow = append(streamRow, f3(tg))
		}
		t.Rows = append(t.Rows, specRow, streamRow)
	}
	t.Notes = append(t.Notes,
		"normalized to the same tracker without Row-Press protection; paper shape: Stream slows at low tMRO")
	return t
}

// designSet13 returns the Fig. 13 defense set for MC-side trackers at the
// given alpha.
func designSet13(alpha float64) []core.Design {
	return []core.Design{
		core.NewDesign(core.ExPress).WithAlpha(alpha),
		core.NewDesign(core.ImpressN).WithAlpha(alpha),
		core.NewDesign(core.ImpressP),
	}
}

// fig13MintSpecs returns the Fig. 13 MINT panel runs: ImPress-N at RFM-40
// and ImPress-P at RFM-80 (Appendix A threshold retention).
func fig13MintSpecs(w trace.Workload) (specN, specP RunSpec) {
	mintTRH := trackers.MINTToleratedTRH(80)
	specN = RunSpec{Workload: w, Design: core.NewDesign(core.ImpressN),
		Tracker: sim.TrackerMINT, DesignTRH: TRH(mintTRH), RFMTH: RFM(40)}
	specP = RunSpec{Workload: w, Design: core.NewDesign(core.ImpressP),
		Tracker: sim.TrackerMINT, DesignTRH: TRH(mintTRH), RFMTH: RFM(80)}
	return specN, specP
}

// figure13Specs declares every simulation fig13 needs.
func figure13Specs(ws []trace.Workload) []RunSpec {
	var specs []RunSpec
	mintTRH := trackers.MINTToleratedTRH(80)
	for _, w := range ws {
		for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
			specs = append(specs, noRPSpec(w, tracker, 4000, 80))
			for _, d := range designSet13(1) {
				specs = append(specs, RunSpec{Workload: w, Design: d, Tracker: tracker, DesignTRH: TRH(4000)})
			}
		}
		specs = append(specs, noRPSpec(w, sim.TrackerMINT, mintTRH, 80))
		specN, specP := fig13MintSpecs(w)
		specs = append(specs, specN, specP)
	}
	return specs
}

// figure13 regenerates the headline per-workload performance comparison:
// ExPress vs ImPress-N vs ImPress-P (alpha = 1) on Graphene and PARA, and
// ImPress-N (RFM-40) vs ImPress-P (RFM-80) on MINT.
func figure13(r *Runner, ws []trace.Workload) *Table {
	t := &Table{
		ID: "fig13", Title: "Performance normalized to No-RP, alpha=1 (paper Fig. 13)",
		Header: []string{"Workload",
			"graphene/express", "graphene/impress-n", "graphene/impress-p",
			"para/express", "para/impress-n", "para/impress-p",
			"mint/impress-n(rfm40)", "mint/impress-p"},
	}
	cols := make([]map[string]float64, 8)
	for i := range cols {
		cols[i] = map[string]float64{}
	}
	for _, w := range ws {
		row := []string{w.Name}
		col := 0
		for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
			base := r.result(noRPSpec(w, tracker, 4000, 80))
			for _, d := range designSet13(1) {
				res := r.result(RunSpec{Workload: w, Design: d, Tracker: tracker, DesignTRH: TRH(4000)})
				v := res.NormalizeTo(base)
				cols[col][w.Name] = v
				row = append(row, f3(v))
				col++
			}
		}
		// MINT panel: No-RP baseline at RFM-80; ImPress-N retains the
		// tolerated threshold by halving RFMTH to 40 (Appendix A);
		// ImPress-P stays at RFM-80.
		mintTRH := trackers.MINTToleratedTRH(80)
		base := r.result(noRPSpec(w, sim.TrackerMINT, mintTRH, 80))
		specN, specP := fig13MintSpecs(w)
		resN, resP := r.result(specN), r.result(specP)
		vN, vP := resN.NormalizeTo(base), resP.NormalizeTo(base)
		cols[6][w.Name], cols[7][w.Name] = vN, vP
		row = append(row, f3(vN), f3(vP))
		t.Rows = append(t.Rows, row)
	}
	specRow, streamRow := []string{"SPEC (GMean)"}, []string{"STREAM (GMean)"}
	for i := range cols {
		sg, tg := geoMeanBy(ws, cols[i])
		specRow = append(specRow, f3(sg))
		streamRow = append(streamRow, f3(tg))
	}
	t.Rows = append(t.Rows, specRow, streamRow)
	t.Notes = append(t.Notes,
		"paper shape: ExPress slows Stream (early closure + lower T*); ImPress-N avoids the closure loss;",
		"ImPress-P is within noise of No-RP on every workload")
	return t
}

// fig16Designs is the Fig. 16 MC-side design sweep: ExPress and ImPress-N
// at alpha 0.35 and 1.
func fig16Designs() []core.Design {
	return []core.Design{
		core.NewDesign(core.ExPress).WithAlpha(0.35),
		core.NewDesign(core.ImpressN).WithAlpha(0.35),
		core.NewDesign(core.ExPress).WithAlpha(1),
		core.NewDesign(core.ImpressN).WithAlpha(1),
	}
}

// fig16MintConfigs is the MINT panel: RFM-60 restores the threshold at
// alpha=0.35, RFM-40 at 1.
var fig16MintConfigs = []struct {
	alpha float64
	rfmth int
}{{0.35, 60}, {1, 40}}

// fig16MintSpec is one Fig. 16 MINT run.
func fig16MintSpec(w trace.Workload, alpha float64, rfmth int) RunSpec {
	mintTRH := trackers.MINTToleratedTRH(80)
	return RunSpec{Workload: w, Design: core.NewDesign(core.ImpressN).WithAlpha(alpha),
		Tracker: sim.TrackerMINT, DesignTRH: TRH(mintTRH), RFMTH: RFM(rfmth)}
}

// figure16Specs declares every simulation fig16 needs.
func figure16Specs(ws []trace.Workload) []RunSpec {
	var specs []RunSpec
	mintTRH := trackers.MINTToleratedTRH(80)
	for _, w := range ws {
		for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
			specs = append(specs, noRPSpec(w, tracker, 4000, 80))
			for _, d := range fig16Designs() {
				specs = append(specs, RunSpec{Workload: w, Design: d, Tracker: tracker, DesignTRH: TRH(4000)})
			}
		}
		specs = append(specs, noRPSpec(w, sim.TrackerMINT, mintTRH, 80))
		for _, cfg := range fig16MintConfigs {
			specs = append(specs, fig16MintSpec(w, cfg.alpha, cfg.rfmth))
		}
	}
	return specs
}

// figure16 regenerates the Appendix-A comparison at alpha in {0.35, 1}.
func figure16(r *Runner, ws []trace.Workload) *Table {
	t := &Table{
		ID: "fig16", Title: "ExPress vs ImPress-N at alpha 0.35 and 1 (paper Fig. 16)",
		Header: []string{"Workload",
			"graphene/express(.35)", "graphene/impress-n(.35)", "graphene/express(1)", "graphene/impress-n(1)",
			"para/express(.35)", "para/impress-n(.35)", "para/express(1)", "para/impress-n(1)",
			"mint/impress-n(.35,rfm60)", "mint/impress-n(1,rfm40)"},
	}
	numCols := 10
	cols := make([]map[string]float64, numCols)
	for i := range cols {
		cols[i] = map[string]float64{}
	}
	for _, w := range ws {
		row := []string{w.Name}
		col := 0
		for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
			base := r.result(noRPSpec(w, tracker, 4000, 80))
			for _, d := range fig16Designs() {
				res := r.result(RunSpec{Workload: w, Design: d, Tracker: tracker, DesignTRH: TRH(4000)})
				v := res.NormalizeTo(base)
				cols[col][w.Name] = v
				row = append(row, f3(v))
				col++
			}
		}
		mintTRH := trackers.MINTToleratedTRH(80)
		base := r.result(noRPSpec(w, sim.TrackerMINT, mintTRH, 80))
		for i, cfg := range fig16MintConfigs {
			res := r.result(fig16MintSpec(w, cfg.alpha, cfg.rfmth))
			v := res.NormalizeTo(base)
			cols[8+i][w.Name] = v
			row = append(row, f3(v))
		}
		t.Rows = append(t.Rows, row)
	}
	specRow, streamRow := []string{"SPEC (GMean)"}, []string{"STREAM (GMean)"}
	for i := range cols {
		sg, tg := geoMeanBy(ws, cols[i])
		specRow = append(specRow, f3(sg))
		streamRow = append(streamRow, f3(tg))
	}
	t.Rows = append(t.Rows, specRow, streamRow)
	t.Notes = append(t.Notes,
		"paper shape: ImPress-N outperforms ExPress on Stream (no early closure); alpha=1 costs more than 0.35")
	return t
}

// namedDesign pairs a display label with a design for the comparison sets
// shared by fig14, energy and fig15.
type namedDesign struct {
	name string
	d    core.Design
}

// comparisonDesigns is the No-RP / ExPress / ImPress-P comparison set.
func comparisonDesigns() []namedDesign {
	return []namedDesign{
		{"no-rp", core.NewDesign(core.NoRP)},
		{"express", core.NewDesign(core.ExPress)},
		{"impress-p", core.NewDesign(core.ImpressP)},
	}
}

// figure14Specs declares every simulation fig14 (and energy, which
// reuses the identical run set) needs.
func figure14Specs(ws []trace.Workload) []RunSpec {
	var specs []RunSpec
	for _, w := range ws {
		specs = append(specs, baselineSpec(w))
		for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
			for _, dd := range comparisonDesigns() {
				specs = append(specs, RunSpec{Workload: w, Design: dd.d, Tracker: tracker, DesignTRH: TRH(4000)})
			}
		}
	}
	return specs
}

// figure14 regenerates the activation-overhead breakdown: demand and
// mitigative activations relative to the unprotected baseline, averaged
// over all workloads.
func figure14(r *Runner, ws []trace.Workload) *Table {
	t := &Table{
		ID: "fig14", Title: "Relative activations: demand + mitigative (paper Fig. 14)",
		Header: []string{"Tracker", "Design", "Demand ACTs", "Mitigative ACTs", "Total"},
	}
	for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
		for _, dd := range comparisonDesigns() {
			var demand, mitig []float64
			for _, w := range ws {
				unprot := r.result(baselineSpec(w))
				res := r.result(RunSpec{Workload: w, Design: dd.d, Tracker: tracker, DesignTRH: TRH(4000)})
				baseActs := float64(unprot.Mem.DemandACTs)
				if baseActs == 0 {
					continue
				}
				// Normalize per retired instruction (runs have equal
				// budgets, so raw counts are comparable).
				demand = append(demand, float64(res.Mem.DemandACTs)/baseActs)
				mitig = append(mitig, float64(res.Mem.MitigativeACTs)/baseActs)
			}
			d, m := stats.Mean(demand), stats.Mean(mitig)
			t.Rows = append(t.Rows, []string{
				string(tracker), dd.name, f2(d), f2(m), f2(d + m),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: ExPress inflates demand ACTs ~1.5-1.6x (early closure); ImPress-P stays ~1x with a",
		"small mitigative increase for PARA")
	return t
}

// energyTable regenerates the Section VI-E energy overheads from the same
// run set as Figure 14.
func energyTable(r *Runner, ws []trace.Workload) *Table {
	t := &Table{
		ID: "energy", Title: "DRAM energy relative to unprotected baseline (paper Section VI-E)",
		Header: []string{"Tracker", "Design", "Relative energy", "Activation share"},
	}
	model := energy.DefaultModel()
	for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
		for _, dd := range comparisonDesigns() {
			var rel, share []float64
			for _, w := range ws {
				unprot := r.result(baselineSpec(w))
				res := r.result(RunSpec{Workload: w, Design: dd.d, Tracker: tracker, DesignTRH: TRH(4000)})
				baseE := model.Compute(unprot.Mem, dram.Tick(unprot.Cycles*dram.TicksPerCPUCycle), 2)
				e := model.Compute(res.Mem, dram.Tick(res.Cycles*dram.TicksPerCPUCycle), 2)
				rel = append(rel, energy.RelativeEnergy(e, baseE))
				share = append(share, baseE.ActivationShare())
			}
			t.Rows = append(t.Rows, []string{
				string(tracker), dd.name, f3(stats.Mean(rel)), f3(stats.Mean(share)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: activations are ~11% of baseline DRAM energy; ExPress adds ~6-7% energy, ImPress-P ~1-2%")
	return t
}

// fig15TRHs is the Fig. 15 threshold sweep.
var fig15TRHs = []float64{4000, 2000, 1000}

// figure15Specs declares every simulation fig15 needs.
func figure15Specs(ws []trace.Workload) []RunSpec {
	var specs []RunSpec
	for _, w := range ws {
		specs = append(specs, baselineSpec(w))
		for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
			for _, dd := range comparisonDesigns() {
				for _, trh := range fig15TRHs {
					specs = append(specs, RunSpec{Workload: w, Design: dd.d, Tracker: tracker, DesignTRH: TRH(trh)})
				}
			}
		}
	}
	return specs
}

// figure15 regenerates the threshold-scaling study: Graphene and PARA at
// TRH in {4K, 2K, 1K} for No-RP, ExPress and ImPress-P, normalized to the
// unprotected baseline.
func figure15(r *Runner, ws []trace.Workload) *Table {
	t := &Table{
		ID: "fig15", Title: "Performance vs TRH, normalized to unprotected (paper Fig. 15)",
		Header: []string{"Tracker", "Design", "TRH=4K", "TRH=2K", "TRH=1K"},
	}
	for _, tracker := range []sim.TrackerKind{sim.TrackerGraphene, sim.TrackerPARA} {
		for _, dd := range comparisonDesigns() {
			row := []string{string(tracker), dd.name}
			for _, trh := range fig15TRHs {
				// Collect in workload order: map iteration would randomize
				// float summation inside GeoMean across invocations.
				var all []float64
				for _, w := range ws {
					unprot := r.result(baselineSpec(w))
					res := r.result(RunSpec{Workload: w, Design: dd.d, Tracker: tracker, DesignTRH: TRH(trh)})
					all = append(all, res.NormalizeTo(unprot))
				}
				row = append(row, f3(stats.GeoMean(all)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: overheads grow as TRH shrinks; ExPress degrades fastest, ImPress-P tracks No-RP")
	return t
}
