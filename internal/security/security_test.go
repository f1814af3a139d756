package security

import (
	"context"
	"math"
	"testing"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/stats"
	"impress/internal/trackers"
)

const designTRH = 4000

func grapheneFactory() TrackerFactory {
	return func(trh float64) trackers.Tracker { return trackers.NewGraphene(trh) }
}

func paraFactory(seed uint64) TrackerFactory {
	return func(trh float64) trackers.Tracker {
		return trackers.NewPARA(trh, stats.NewRand(seed))
	}
}

func mithrilFactory(rfmth int) TrackerFactory {
	return func(trh float64) trackers.Tracker { return trackers.NewMithril(trh, rfmth) }
}

func mintFactory(rfmth int, seed uint64) TrackerFactory {
	return func(trh float64) trackers.Tracker {
		return trackers.NewMINT(rfmth, stats.NewRand(seed))
	}
}

// run replays p against cfg under an uncancellable context, failing the
// test on an error.
func run(tb testing.TB, cfg Config, p attack.Pattern) Result {
	tb.Helper()
	res, err := RunContext(context.Background(), cfg, p)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// --- Headline motivation: Rowhammer defenses are secure against RH but
// --- broken by Row-Press (Section I / II-D).

func TestGrapheneSecureAgainstRowhammer(t *testing.T) {
	tm := dram.DDR5()
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration, Tracker: grapheneFactory(),
	}
	res := run(t, cfg, &attack.Rowhammer{Row: 1000, Timings: tm})
	if res.MaxDamage >= designTRH {
		t.Fatalf("Graphene broken by pure RH: maxDamage=%v", res.MaxDamage)
	}
	// Graphene mitigates at its internal threshold (TRH/3): damage peaks
	// right around there.
	internal := designTRH / trackers.GrapheneInternalDivisor
	if res.MaxDamage < float64(internal)*0.95 || res.MaxDamage > float64(internal)*1.1 {
		t.Fatalf("maxDamage=%v, expected near internal threshold %v", res.MaxDamage, internal)
	}
}

func TestRowPressBreaksGraphene(t *testing.T) {
	// The paper's core motivation: holding the row open for one tREFI
	// slashes the activations needed for a flip; a tracker that counts
	// plain ACTs lets damage exceed TRH by a wide margin.
	tm := dram.DDR5()
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration, Tracker: grapheneFactory(),
	}
	res := run(t, cfg, &attack.RowPress{Row: 1000, TON: tm.TREFI, Timings: tm})
	if res.MaxDamage < designTRH {
		t.Fatalf("Row-Press should break the No-RP tracker, maxDamage=%v", res.MaxDamage)
	}
	// The inflation factor is roughly TCL(tREFI) ~ 1+0.48*80.5 ~ 39x.
	if res.MaxDamage < 10*designTRH {
		t.Fatalf("expected order-of-magnitude break, got %v", res.MaxDamage)
	}
}

func TestRowPressBreaksPARA(t *testing.T) {
	tm := dram.DDR5()
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration, Tracker: paraFactory(11),
	}
	res := run(t, cfg, &attack.RowPress{Row: 1000, TON: tm.TREFI, Timings: tm})
	if res.MaxDamage < designTRH {
		t.Fatalf("Row-Press should break No-RP PARA, maxDamage=%v", res.MaxDamage)
	}
}

func TestRowPressBreaksMINT(t *testing.T) {
	tm := dram.DDR5()
	mintTRH := trackers.MINTToleratedTRH(80)
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: mintTRH,
		AlphaTrue: clm.AlphaLongDuration, RFMTH: 80, Tracker: mintFactory(80, 13),
	}
	res := run(t, cfg, &attack.RowPress{Row: 1000, TON: tm.TREFI, Timings: tm})
	if res.MaxDamage < mintTRH {
		t.Fatalf("Row-Press should break No-RP MINT, maxDamage=%v < %v", res.MaxDamage, mintTRH)
	}
}

// --- ExPress: secure once tMRO is enforced and the tracker retuned.

func TestExPressRestoresGrapheneSecurity(t *testing.T) {
	tm := dram.DDR5()
	design := core.NewDesign(core.ExPress).WithAlpha(clm.AlphaDeviceIndependent)
	cfg := Config{
		Design: design, DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration, Tracker: grapheneFactory(),
	}
	// The attacker asks for a huge tON but the controller clamps to tMRO.
	res := run(t, cfg, &attack.RowPress{Row: 1000, TON: 10 * tm.TREFI, Timings: tm})
	if res.MaxDamage >= designTRH {
		t.Fatalf("ExPress failed to contain Row-Press: %v", res.MaxDamage)
	}
}

// --- ImPress-N: Equation 5 (T* = TRH/(1+alpha)) and full-window RP
// --- conversion.

func TestImpressNHandlesFullWindowRowPress(t *testing.T) {
	// A row held open for many full tRC windows is converted into an
	// equivalent stream of ACTs: damage stays bounded near the internal
	// threshold, like a pure RH attack.
	tm := dram.DDR5()
	design := core.NewDesign(core.ImpressN) // alpha = 1
	cfg := Config{
		Design: design, DesignTRH: designTRH,
		AlphaTrue: 1, Tracker: grapheneFactory(),
	}
	rh := run(t, cfg, &attack.Rowhammer{Row: 1000, Timings: tm})
	rp := run(t, cfg, &attack.RowPress{Row: 1000, TON: 16 * tm.TRC, Timings: tm})
	if rp.MaxDamage >= designTRH {
		t.Fatalf("ImPress-N failed on full-window RP: %v", rp.MaxDamage)
	}
	ratio := rp.MaxDamage / rh.MaxDamage
	if ratio > 1.25 {
		t.Fatalf("full-window RP should be converted to ~RH damage; ratio=%v", ratio)
	}
}

func TestImpressNDecoyEquation5(t *testing.T) {
	// The decoy pattern inflicts (1+alphaTrue) damage per tracked ACT, so
	// its peak damage is (1+alpha) times the pure-RH peak — Equation 5.
	tm := dram.DDR5()
	for _, alphaTrue := range []float64{0.35, 1.0} {
		design := core.NewDesign(core.ImpressN).WithAlpha(1)
		cfg := Config{
			Design: design, DesignTRH: designTRH,
			AlphaTrue: alphaTrue, Tracker: grapheneFactory(),
		}
		rh := run(t, cfg, &attack.Rowhammer{Row: 1 << 20, Timings: tm})
		decoy := run(t, cfg, &attack.Decoy{Row: 1 << 20, DecoyRow: 1 << 24, Spread: 8192, Timings: tm})
		ratio := decoy.MaxDamage / rh.MaxDamage
		want := 1 + alphaTrue
		if math.Abs(ratio-want)/want > 0.10 {
			t.Fatalf("alphaTrue=%v: decoy/RH damage ratio = %v, want ~%v (Eq. 5)",
				alphaTrue, ratio, want)
		}
		// With the tracker retuned to TRH/(1+design alpha)=TRH/2, the
		// decoy still cannot reach TRH.
		if decoy.MaxDamage >= designTRH {
			t.Fatalf("retuned ImPress-N breached: %v", decoy.MaxDamage)
		}
	}
}

// --- ImPress-P: the headline — no pattern inflates peak damage, TRH kept.

func TestImpressPContainsAllPatterns(t *testing.T) {
	tm := dram.DDR5()
	design := core.NewDesign(core.ImpressP)
	cfg := Config{
		Design: design, DesignTRH: designTRH,
		AlphaTrue: 1, // worst-case device: RP as damaging as RH per tRC
		Tracker:   grapheneFactory(),
	}
	rh := run(t, cfg, &attack.Rowhammer{Row: 1 << 20, Timings: tm})
	patterns := []attack.Pattern{
		&attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm},
		&attack.RowPress{Row: 1 << 20, TON: tm.TONMax, Timings: tm},
		&attack.RowPress{Row: 1 << 20, TON: 2 * tm.TRC, Timings: tm},
		&attack.Decoy{Row: 1 << 20, DecoyRow: 1 << 24, Spread: 8192, Timings: tm},
		&attack.CombinedK{Row: 1 << 20, K: 72, Timings: tm},
		&attack.InterleavedRHRP{Row: 1 << 20, BurstLen: 10, HoldTON: 8 * tm.TRC, Timings: tm},
	}
	for _, p := range patterns {
		res := run(t, cfg, p)
		if res.MaxDamage >= designTRH {
			t.Fatalf("%s breached ImPress-P: %v", p.Name(), res.MaxDamage)
		}
		// Peak damage must stay within one access of the RH peak: Row-
		// Press is converted into exactly equivalent Rowhammer. The
		// slack term covers the damage of the final (long) access that
		// crosses the internal threshold.
		slack := 1.05*rh.MaxDamage + clm.Model{Alpha: 1, Timings: tm}.AccessTCL(tm.TONMax)
		if res.MaxDamage > slack {
			t.Fatalf("%s: damage %v exceeds RH-equivalent bound %v (RH peak %v)",
				p.Name(), res.MaxDamage, slack, rh.MaxDamage)
		}
	}
}

func TestImpressPWithPARA(t *testing.T) {
	tm := dram.DDR5()
	design := core.NewDesign(core.ImpressP)
	cfg := Config{
		Design: design, DesignTRH: designTRH,
		AlphaTrue: 1, Tracker: paraFactory(17),
	}
	rh := run(t, cfg, &attack.Rowhammer{Row: 1 << 20, Timings: tm})
	rp := run(t, cfg, &attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm})
	// PARA is probabilistic; compare peaks within a generous band. The
	// key property: RP does not get an order-of-magnitude advantage the
	// way it does under No-RP (see TestRowPressBreaksPARA).
	if rp.MaxDamage > 3*rh.MaxDamage {
		t.Fatalf("ImPress-P PARA: RP peak %v vs RH peak %v", rp.MaxDamage, rh.MaxDamage)
	}
	if rp.MaxDamage >= designTRH {
		t.Fatalf("ImPress-P PARA breached: %v", rp.MaxDamage)
	}
}

func TestImpressPWithMINT(t *testing.T) {
	tm := dram.DDR5()
	mintTRH := trackers.MINTToleratedTRH(80)
	design := core.NewDesign(core.ImpressP)
	cfg := Config{
		Design: design, DesignTRH: mintTRH,
		AlphaTrue: 1, RFMTH: 80, Tracker: mintFactory(80, 23),
	}
	rp := run(t, cfg, &attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm})
	if rp.MaxDamage >= mintTRH {
		t.Fatalf("ImPress-P MINT breached by RP: %v >= %v", rp.MaxDamage, mintTRH)
	}
}

func TestImpressPWithMithril(t *testing.T) {
	tm := dram.DDR5()
	design := core.NewDesign(core.ImpressP)
	cfg := Config{
		Design: design, DesignTRH: designTRH,
		AlphaTrue: 1, RFMTH: 80, Tracker: mithrilFactory(80),
	}
	rh := run(t, cfg, &attack.Rowhammer{Row: 1 << 20, Timings: tm})
	rp := run(t, cfg, &attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm})
	if rp.MaxDamage >= designTRH {
		t.Fatalf("ImPress-P Mithril breached: %v", rp.MaxDamage)
	}
	if rp.MaxDamage > 2*rh.MaxDamage+100 {
		t.Fatalf("Mithril ImPress-P: RP peak %v vs RH peak %v", rp.MaxDamage, rh.MaxDamage)
	}
}

func TestMithrilNoRPBrokenByRowPress(t *testing.T) {
	tm := dram.DDR5()
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration, RFMTH: 80, Tracker: mithrilFactory(80),
	}
	// The attacker postpones refreshes and holds the row for the DDR5
	// maximum (5 tREFI): even with Mithril mitigating the aggressor at
	// every RFM, the damage accumulated between RFMs exceeds TRH.
	res := run(t, cfg, &attack.RowPress{Row: 1 << 20, TON: tm.TONMax, Timings: tm})
	if res.MaxDamage < designTRH {
		t.Fatalf("Row-Press should break No-RP Mithril: %v", res.MaxDamage)
	}
}

// --- Fig. 12: reduced fractional precision inflates the worst case by
// --- at most 1/(T*_b).

func TestImpressPFracBitsDegradation(t *testing.T) {
	tm := dram.DDR5()
	baseCfg := func(bits int) Config {
		return Config{
			Design:    core.NewDesign(core.ImpressP).WithFracBits(bits),
			DesignTRH: designTRH,
			AlphaTrue: 1,
			Tracker:   grapheneFactory(),
		}
	}
	// Attack with an access whose fractional part is maximal for the
	// truncation: tON = tRAS + tRC + (tRC - one cycle's worth).
	tON := tm.TRAS + tm.TRC + tm.TRC - dram.TicksPerDRAMCycle
	full := run(t, baseCfg(clm.FracBits), &attack.RowPress{Row: 1 << 20, TON: tON, Timings: tm})
	for _, bits := range []int{0, 2, 4, 6} {
		res := run(t, baseCfg(bits), &attack.RowPress{Row: 1 << 20, TON: tON, Timings: tm})
		ratio := res.MaxDamage / full.MaxDamage
		bound := 1 / clm.FracBitsEffectiveThreshold(bits)
		if ratio > bound*1.05 {
			t.Fatalf("bits=%d: damage inflation %v exceeds Fig.12 bound %v", bits, ratio, bound)
		}
		if res.MaxDamage < full.MaxDamage*0.99 {
			t.Fatalf("bits=%d: truncation cannot reduce attacker damage below full precision", bits)
		}
	}
}

// --- Determinism: identical configs and seeds give identical results.

func TestHarnessDeterminism(t *testing.T) {
	tm := dram.DDR5()
	mk := func() Result {
		cfg := Config{
			Design: core.NewDesign(core.ImpressP), DesignTRH: designTRH,
			AlphaTrue: 1, Tracker: paraFactory(99),
			Duration: tm.TREFW / 8,
		}
		return run(t, cfg, &attack.RowPress{Row: 5, TON: 4 * tm.TRC, Timings: tm})
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("harness not deterministic:\n%+v\n%+v", a, b)
	}
}

// --- Storage (Section VI-C).

func TestGrapheneStoragePaperNumbers(t *testing.T) {
	s := GrapheneStorage(designTRH, 0)
	if s.EntriesPerBank != 448 {
		t.Fatalf("entries = %d, want 448", s.EntriesPerBank)
	}
	// Paper: 115 KB per channel.
	if math.Abs(s.ChannelKB-115) > 2 {
		t.Fatalf("channel KB = %v, want ~115", s.ChannelKB)
	}
	// ImPress-P: same entries, 7 more bits, ~25%% more storage.
	sp := GrapheneStorage(designTRH, clm.FracBits)
	if sp.EntriesPerBank != 448 {
		t.Fatalf("ImPress-P entries = %d, must stay 448", sp.EntriesPerBank)
	}
	overhead := sp.ChannelKB / s.ChannelKB
	if overhead < 1.15 || overhead > 1.30 {
		t.Fatalf("ImPress-P storage overhead %v, want ~1.2-1.25", overhead)
	}
	// ExPress / ImPress-N at alpha=1: 2x entries.
	s2 := GrapheneStorage(designTRH/2, 0)
	if s2.EntriesPerBank != 896 {
		t.Fatalf("reduced-threshold entries = %d, want 896", s2.EntriesPerBank)
	}
	if ratio := s2.ChannelKB / s.ChannelKB; math.Abs(ratio-2) > 0.01 {
		t.Fatalf("ExPress storage ratio %v, want 2.0", ratio)
	}
}

func TestMithrilStoragePaperNumbers(t *testing.T) {
	s := MithrilStorage(designTRH, 80, 0)
	if s.EntriesPerBank != 383 {
		t.Fatalf("entries = %d, want 383", s.EntriesPerBank)
	}
	if math.Abs(s.ChannelKB-86) > 2 {
		t.Fatalf("channel KB = %v, want ~86", s.ChannelKB)
	}
	// ImPress-N at alpha=1: 1545 entries (~4x).
	s2 := MithrilStorage(2000, 80, 0)
	if s2.EntriesPerBank < 1540 || s2.EntriesPerBank > 1550 {
		t.Fatalf("entries at T*=2K = %d, want ~1545", s2.EntriesPerBank)
	}
	if ratio := s2.ChannelKB / s.ChannelKB; ratio < 3.9 || ratio > 4.2 {
		t.Fatalf("ImPress-N Mithril storage ratio %v, want ~4x", ratio)
	}
	// ImPress-P: same entries, ~25% wider.
	sp := MithrilStorage(designTRH, 80, clm.FracBits)
	if sp.EntriesPerBank != 383 {
		t.Fatal("ImPress-P must not change Mithril entry count")
	}
	if ratio := sp.ChannelKB / s.ChannelKB; math.Abs(ratio-1.24) > 0.03 {
		t.Fatalf("ImPress-P Mithril overhead %v, want ~1.24", ratio)
	}
}

func TestMINTStoragePaperNumbers(t *testing.T) {
	// Section VI-C: 4 bytes baseline, 5 bytes with ImPress-P.
	if got := MINTStorageBytes(80, 0); got != 4 {
		t.Fatalf("MINT baseline bytes = %d, want 4", got)
	}
	if got := MINTStorageBytes(80, clm.FracBits); got != 5 {
		t.Fatalf("MINT ImPress-P bytes = %d, want 5", got)
	}
}

func TestStorageComparisonTable(t *testing.T) {
	rows := StorageComparison("graphene", designTRH, 80, 1)
	if len(rows) != 4 {
		t.Fatalf("want 4 design rows, got %d", len(rows))
	}
	byDesign := map[string]DesignStorage{}
	for _, r := range rows {
		byDesign[r.Design] = r
	}
	if byDesign["no-rp"].RelativeToNoRP != 1 {
		t.Fatal("baseline must be 1.0")
	}
	if r := byDesign["express"].RelativeToNoRP; math.Abs(r-2) > 0.01 {
		t.Fatalf("ExPress relative = %v", r)
	}
	if r := byDesign["impress-n"].RelativeToNoRP; math.Abs(r-2) > 0.01 {
		t.Fatalf("ImPress-N relative = %v", r)
	}
	if r := byDesign["impress-p"].RelativeToNoRP; r < 1.15 || r > 1.3 {
		t.Fatalf("ImPress-P relative = %v, want ~1.2-1.25", r)
	}
}

// --- Analytic models (Appendix B).

func TestGrapheneAttackSlowdownEquation9(t *testing.T) {
	// 0.2%/0.4%/0.8% for TRH 4000/2000/1000, independent of K.
	cases := map[float64]float64{4000: 0.002, 2000: 0.004, 1000: 0.008}
	for trh, want := range cases {
		for _, k := range []int{0, 10, 100} {
			if got := GrapheneAttackSlowdown(trh, k); math.Abs(got-want) > 1e-12 {
				t.Fatalf("slowdown(%v, K=%d) = %v, want %v", trh, k, got, want)
			}
		}
	}
}

func TestPARAAttackSlowdownEquation10(t *testing.T) {
	// At K=0 and TRH=4000 (p=1/84): 4/84 = 4.76%.
	if got := PARAAttackSlowdown(4000, 0); math.Abs(got-4.0/84) > 1e-12 {
		t.Fatalf("PARA slowdown at K=0: %v", got)
	}
	// The slowdown is flat until p*(K+1) saturates, then decays as
	// 4/(K+1).
	knee := PARASlowdownCriticalK(4000)
	if knee != 83 {
		t.Fatalf("critical K = %d, want 83", knee)
	}
	if got := PARAAttackSlowdown(4000, 200); math.Abs(got-4.0/201) > 1e-12 {
		t.Fatalf("post-knee slowdown = %v, want %v", got, 4.0/201)
	}
	// Monotone non-increasing in K.
	prev := math.Inf(1)
	for k := 0; k <= 300; k++ {
		v := PARAAttackSlowdown(4000, k)
		if v > prev+1e-15 {
			t.Fatalf("slowdown increased at K=%d", k)
		}
		prev = v
	}
}

// --- Harness-measured attack slowdown matches the analytic Graphene
// --- model (Fig. 18's flat lines).

func TestMeasuredGrapheneSlowdownMatchesEquation9(t *testing.T) {
	// Fig. 18's claim is that the slowdown under ImPress-P is flat in K
	// (Row-Press converts to exactly equivalent Rowhammer). The measured
	// level differs slightly from Equation 9's 8/TRH because the paper's
	// Appendix-B analysis assumes mitigation at TRH/2 counts while the
	// provisioned Graphene mitigates at its internal threshold TRH/3
	// (Section III-B); we assert flatness tightly and the level within
	// the [8/TRH, 12/TRH] band those two assumptions span.
	tm := dram.DDR5()
	var slowdowns []float64
	for _, k := range []int64{0, 8, 32} {
		cfg := Config{
			Design: core.NewDesign(core.ImpressP), DesignTRH: designTRH,
			AlphaTrue: 1, Tracker: grapheneFactory(),
			Duration: tm.TREFW,
		}
		res := run(t, cfg, &attack.CombinedK{Row: 1 << 20, K: k, Timings: tm})
		slowdowns = append(slowdowns, res.Slowdown())
	}
	lo, hi := 8.0/designTRH*0.9, 12.0/designTRH*1.1
	for i, s := range slowdowns {
		if s < lo || s > hi {
			t.Fatalf("slowdown[%d] = %v outside [%v, %v]", i, s, lo, hi)
		}
	}
	// Flat in K within 10%.
	for _, s := range slowdowns[1:] {
		if math.Abs(s-slowdowns[0])/slowdowns[0] > 0.10 {
			t.Fatalf("slowdown not flat in K: %v", slowdowns)
		}
	}
}
