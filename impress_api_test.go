package impress_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"impress"
)

// newLab builds a default Lab or fails the test.
func newLab(t *testing.T) *impress.Lab {
	t.Helper()
	lab, err := impress.NewLab()
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

// mustRun runs one simulation through a default Lab or fails the test.
func mustRun(t *testing.T, cfg impress.SimConfig) impress.SimResult {
	t.Helper()
	res, err := newLab(t).Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// These tests exercise the public facade end to end: a downstream user of
// the library should be able to reproduce the paper's headline claims
// through the impress package alone.

func TestPublicModelAPI(t *testing.T) {
	tm := impress.DDR5()
	model := impress.NewModel(impress.AlphaLongDuration)
	if got := model.AccessTCL(tm.TRAS); got != 1 {
		t.Fatalf("AccessTCL(tRAS) = %v", got)
	}
	calc := impress.NewEACTCalculator(tm)
	if got := calc.FromTON(tm.TRAS + tm.TRC); got != 2*impress.One {
		t.Fatalf("EACT(tRAS+tRC) = %v, want 2", got)
	}
	if impress.FracBitsEffectiveThreshold(7) != 1 {
		t.Fatal("7 fractional bits must be exact")
	}
}

func TestPublicAttackAPIHeadline(t *testing.T) {
	tm := impress.DDR5()
	const trh = 4000
	run := func(kind impress.DesignKind) float64 {
		cfg := impress.AttackConfig{
			Design:    impress.NewDesign(kind),
			DesignTRH: trh,
			AlphaTrue: impress.AlphaLongDuration,
			Tracker:   func(t float64) impress.Tracker { return impress.NewGraphene(t) },
		}
		res, err := newLab(t).Attack(context.Background(), cfg, &impress.RowPressPattern{
			Row: 1 << 20, TON: tm.TREFI, Timings: tm,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxDamage
	}
	broken := run(impress.NoRP)
	fixed := run(impress.ImpressP)
	if broken < trh {
		t.Fatalf("Row-Press should break the unprotected tracker (damage %v)", broken)
	}
	if fixed >= trh {
		t.Fatalf("ImPress-P should contain Row-Press (damage %v)", fixed)
	}
	if broken/fixed < 10 {
		t.Fatalf("expected an order-of-magnitude contrast: %v vs %v", broken, fixed)
	}
}

func TestPublicDesignThresholds(t *testing.T) {
	const trh = 4000
	if got := impress.NewDesign(impress.ImpressP).TrackerTRH(trh); got != trh {
		t.Fatalf("ImPress-P must keep TRH, got %v", got)
	}
	if got := impress.NewDesign(impress.ImpressN).TrackerTRH(trh); got != trh/2 {
		t.Fatalf("ImPress-N at alpha=1 must halve TRH, got %v", got)
	}
}

func TestPublicWorkloads(t *testing.T) {
	if n := len(impress.Workloads()); n != 20 {
		t.Fatalf("workloads = %d, want 20", n)
	}
	if _, err := impress.WorkloadByName("triad"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSimAPI(t *testing.T) {
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.DefaultSimConfig(w, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
	cfg.WarmupInstructions = 5_000
	cfg.RunInstructions = 20_000
	res := mustRun(t, cfg)
	if len(res.IPC) != 8 || res.WeightedIPCSum <= 0 {
		t.Fatalf("bad sim result: %+v", res)
	}
}

func TestPublicTraceRecordReplay(t *testing.T) {
	w, err := impress.WorkloadByName("mix:gcc,attack:hammer")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := newLab(t).Record(context.Background(), w, 2, 2_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := impress.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := decoded.Workload()
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.DefaultSimConfig(replay, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
	cfg.Cores = 2
	cfg.WarmupInstructions = 1_000
	cfg.RunInstructions = 5_000
	live := cfg
	live.Workload = w
	if a, b := mustRun(t, cfg), mustRun(t, live); !reflect.DeepEqual(a, b) {
		t.Fatalf("replayed run differs from live run:\nreplay %+v\nlive   %+v", a, b)
	}
}

func TestPublicTrackers(t *testing.T) {
	rng := impress.NewRand(1)
	for _, tr := range []impress.Tracker{
		impress.NewGraphene(4000),
		impress.NewPARA(4000, rng),
		impress.NewMithril(4000, 80),
		impress.NewMINT(80, impress.NewRand(2)),
	} {
		tr.OnActivation(1, impress.One)
		tr.OnRFM()
		tr.ResetWindow()
	}
	if impress.MINTToleratedTRH(80) != 1600 {
		t.Fatal("MINT tolerated threshold wrong")
	}
}

func TestPublicExperiments(t *testing.T) {
	tabs, err := newLab(t).Experiments(context.Background(), impress.QuickScale(), impress.ExperimentsAnalytical())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) < 10 {
		t.Fatalf("analytical experiments = %d", len(tabs))
	}
	// Scales exist and differ.
	q, f := impress.QuickScale(), impress.FullScale()
	if q.Run >= f.Run {
		t.Fatal("quick scale should be shorter than full")
	}
	if math.IsNaN(float64(q.Run)) {
		t.Fatal("unreachable; silence unused math import complaints")
	}
}

func TestPublicSearchWorstCase(t *testing.T) {
	cfg := impress.AttackConfig{
		Design:    impress.NewDesign(impress.ImpressP),
		DesignTRH: 4000,
		AlphaTrue: 1,
		Tracker:   func(trh float64) impress.Tracker { return impress.NewGraphene(trh) },
	}
	sr := impress.SearchWorstCase(cfg)
	if sr.BestResult.MaxDamage >= 4000 {
		t.Fatalf("search broke ImPress-P: %s at %v", sr.BestPattern, sr.BestResult.MaxDamage)
	}
	if len(sr.All) < 10 {
		t.Fatalf("strategy grid too small: %d", len(sr.All))
	}
}

func TestPublicPRAC(t *testing.T) {
	p := impress.NewPRAC(4000)
	if !p.InDRAM() || p.Name() != "prac" {
		t.Fatal("PRAC facade metadata wrong")
	}
	p.OnActivation(1, impress.One)
	p.OnRFM()
}

func TestPublicExperimentRunner(t *testing.T) {
	scale := impress.ExperimentScale{
		Name: "api-test", Warmup: 5_000, Run: 20_000, Workloads: []string{"gcc"},
	}
	r := impress.NewExperimentRunner(scale)
	r.Parallelism = 2
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	spec := impress.ExperimentRunSpec{
		Workload: w, Design: impress.NewDesign(impress.ImpressP),
		Tracker:   impress.TrackerGraphene,
		DesignTRH: impress.ExperimentTRH(4000), RFMTH: impress.ExperimentRFM(80),
	}
	ctx := context.Background()
	if err := r.Prefetch(ctx, []impress.ExperimentRunSpec{spec}); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 8 || res.WeightedIPCSum <= 0 {
		t.Fatalf("bad runner result: %+v", res)
	}
}

func TestPublicScales(t *testing.T) {
	q, s, f := impress.QuickScale(), impress.StandardScale(), impress.FullScale()
	if !(q.Run < s.Run && s.Run < f.Run) {
		t.Fatalf("scale ordering wrong: %d %d %d", q.Run, s.Run, f.Run)
	}
	if len(s.Workloads) != 0 {
		t.Fatal("standard scale must cover all workloads")
	}
}

func TestPublicResultStore(t *testing.T) {
	store, err := impress.OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := impress.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := impress.DefaultSimConfig(w, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
	cfg.WarmupInstructions, cfg.RunInstructions = 1_000, 5_000
	sp, err := impress.ResultSpecFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The clock mode must not split the key (all modes are bit-identical).
	ca := cfg
	ca.Clock = impress.SimClockCycleAccurate
	if sp2, err := impress.ResultSpecFor(ca); err != nil || sp2.Key() != sp.Key() {
		t.Fatalf("clock mode split the result key: %v", err)
	}
	if _, ok := store.Get(sp); ok {
		t.Fatal("empty store must miss")
	}
	res := mustRun(t, cfg)
	if err := store.Put(sp, res); err != nil {
		t.Fatal(err)
	}
	// A scale-scoped runner sharing the directory serves the result
	// without simulating.
	scale := impress.ExperimentScale{
		Name: "store-api-test", Warmup: 1_000, Run: 5_000, Workloads: []string{"gcc"},
	}
	r := impress.NewExperimentRunner(scale)
	if r.Store, err = impress.OpenResultStore(store.Dir()); err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(context.Background(), impress.ExperimentRunSpec{
		Workload: w, Design: impress.NewDesign(impress.ImpressP), Tracker: impress.TrackerGraphene,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sims() != 0 {
		t.Fatalf("runner simulated %d times; the store should have served the result", r.Sims())
	}
	if got.WeightedIPCSum != res.WeightedIPCSum || got.Cycles != res.Cycles {
		t.Fatalf("stored result drifted: %+v vs %+v", got, res)
	}
}
