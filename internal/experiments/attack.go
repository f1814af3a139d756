package experiments

import (
	"context"
	"fmt"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/resultstore"
	"impress/internal/security"
	"impress/internal/trackers"
)

// Attack-evaluation runs: the security harness analogue of Run. The
// synthesis loop asks for thousands of (pattern, tracker) evaluations
// per generation and re-asks for every survivor each generation, so the
// same memo + persistent-store discipline that makes performance sweeps
// resumable makes evolutionary search resumable — identical genomes are
// cache hits, and a warm store replays a whole search without
// simulating.

// Zoo evaluation defaults: every security-margin comparison in this
// package (the attackzoo table, the synthesis engine's fitness
// function, the archive regression tier) evaluates under one shared
// configuration so their numbers are comparable — ImPress-P at the
// paper's headline TRH, the conservative long-duration alpha, and the
// paper's RFM threshold for in-DRAM trackers.
const (
	// ZooDesignTRH is the evaluation threshold (the paper's headline
	// TRH = 4000).
	ZooDesignTRH = 4000
	// ZooRFMTH is the RFM threshold configured for in-DRAM trackers.
	ZooRFMTH = 80
	// ZooSeed seeds probabilistic trackers' private RNG streams.
	ZooSeed = 42
)

// ZooAttackSpec builds the canonical evaluation spec for a pattern
// against a registered tracker under the shared zoo defaults. MINT
// ignores the configured threshold entirely — its tolerated TRH is a
// property of the RFM threshold — so its evaluations are normalized to
// that tolerated threshold instead.
func ZooAttackSpec(tracker, pattern string) resultstore.AttackSpec {
	trh := float64(ZooDesignTRH)
	rfmth := 0
	if info, ok := trackers.ByName(tracker); ok && info.InDRAM {
		rfmth = ZooRFMTH
	}
	if tracker == "mint" {
		trh = trackers.MINTToleratedTRH(ZooRFMTH)
	}
	return resultstore.AttackSpec{
		Pattern:   pattern,
		Tracker:   tracker,
		Design:    core.NewDesign(core.ImpressP),
		DesignTRH: trh,
		AlphaTrue: clm.AlphaLongDuration,
		RFMTH:     rfmth,
		Seed:      ZooSeed,
	}
}

// ZooEntrySpec reconstructs the evaluation spec an archived zoo entry's
// margins were recorded under, from its manifest fields.
func ZooEntrySpec(e attack.ZooEntry) (resultstore.AttackSpec, error) {
	design, err := core.ParseDesign(e.Design, clm.AlphaDeviceIndependent, 0, clm.FracBits)
	if err != nil {
		return resultstore.AttackSpec{}, fmt.Errorf("experiments: zoo entry %q: %w", e.Name, err)
	}
	return resultstore.AttackSpec{
		Pattern:   attack.SynthSpecPrefix + e.Genome,
		Tracker:   e.Tracker,
		Design:    design,
		DesignTRH: e.DesignTRH,
		AlphaTrue: e.AlphaTrue,
		RFMTH:     e.RFMTH,
		Seed:      e.Seed,
	}, nil
}

// AttackSims reports how many harness evaluations this runner actually
// executed — memo and store hits excluded. A warm-store rerun of a
// synthesis search keeps it at zero.
func (r *Runner) AttackSims() int64 { return r.atkSims.Load() }

// EvaluateAttacks evaluates every spec — in parallel over the runner's
// worker pool, deduplicated, memoized and store-backed with the exact
// contract of Run — and returns results in spec order. Cancellation and
// harness errors surface as typed errors; completed evaluations stay
// memoized and store-written, so a retried batch resumes warm. It is
// the evaluation seam the synthesis engine and the labd attack endpoint
// plug into.
func (r *Runner) EvaluateAttacks(ctx context.Context, specs []resultstore.AttackSpec) ([]security.Result, error) {
	err := forEach(ctx, r.parallelism(), unique(specs, attackKey), func(s resultstore.AttackSpec) error {
		_, err := r.attack(ctx, s)
		return err
	})
	if err != nil {
		return nil, err
	}
	results := make([]security.Result, len(specs))
	for i, s := range specs {
		results[i] = r.attacks.get(attackKey(s))
	}
	return results, nil
}

// attackKey is an attack spec's memo and store key.
func attackKey(spec resultstore.AttackSpec) string { return string(spec.Key()) }

// attack executes (or recalls) one security-harness evaluation through
// the attack memo: a stored result is served without evaluating,
// otherwise the harness runs under ctx and the result is written back.
// Each distinct spec emits ProgressAttackStarted followed by
// ProgressAttackCacheHit or ProgressAttackFinished.
func (r *Runner) attack(ctx context.Context, spec resultstore.AttackSpec) (security.Result, error) {
	k := attackKey(spec)
	return r.attacks.do(ctx, k, func() (security.Result, error) {
		label := spec.Pattern + " vs " + spec.Tracker
		r.emit(Progress{Kind: ProgressAttackStarted, Spec: label, Key: k})
		if r.Store != nil {
			if res, ok := r.Store.GetAttack(spec); ok {
				r.emit(Progress{Kind: ProgressAttackCacheHit, Spec: label, Key: k})
				return res, nil
			}
		}
		cfg, pattern, err := spec.SecurityConfig()
		if err != nil {
			return security.Result{}, err
		}
		res, err := security.RunContext(ctx, cfg, pattern)
		if err != nil {
			return security.Result{}, fmt.Errorf("experiments: %s: %w", label, err)
		}
		r.emit(Progress{Kind: ProgressAttackFinished, Spec: label, Key: k})
		if r.Store != nil {
			_ = r.Store.PutAttack(spec, res)
		}
		return res, nil
	})
}

// AttackZooTable compares the paper's hand-written attack patterns
// against the archived synthesized champions, per registered tracker —
// the adversarial-synthesis headline: how much worse than the paper's
// worst pattern a searched trace gets, for every tracker in the zoo.
func AttackZooTable(ctx context.Context, r *Runner) (*Table, error) {
	t := &Table{
		ID: "attackzoo", Title: "Paper vs synthesized attack margins (peak damage, TRH units)",
		Header: []string{"Tracker", "Best paper pattern", "Paper damage", "Best synthesized", "Synth damage", "Synth/paper"},
	}
	entries, err := attack.ZooEntries(attack.DefaultZooDir())
	if err != nil {
		return nil, err
	}
	names := trackers.Names()
	var specs []resultstore.AttackSpec
	for _, tr := range names {
		for _, p := range attack.PaperPatternNames() {
			specs = append(specs, ZooAttackSpec(tr, p))
		}
		for _, e := range entries {
			specs = append(specs, ZooAttackSpec(tr, attack.SynthSpecPrefix+e.Genome))
		}
	}
	if _, err := r.EvaluateAttacks(ctx, specs); err != nil {
		return nil, err
	}
	for _, tr := range names {
		var paperBest security.Result
		var paperName string
		for _, p := range attack.PaperPatternNames() {
			if res := r.attacks.get(attackKey(ZooAttackSpec(tr, p))); paperName == "" || res.MaxDamage > paperBest.MaxDamage {
				paperBest, paperName = res, p
			}
		}
		synthName, synthDamage, ratio := "-", "-", "-"
		var synthBest security.Result
		var bestEntry string
		for _, e := range entries {
			if res := r.attacks.get(attackKey(ZooAttackSpec(tr, attack.SynthSpecPrefix+e.Genome))); bestEntry == "" || res.MaxDamage > synthBest.MaxDamage {
				synthBest, bestEntry = res, e.Name
			}
		}
		if bestEntry != "" {
			synthName = bestEntry
			synthDamage = f1(synthBest.MaxDamage)
			ratio = f2(synthBest.MaxDamage / paperBest.MaxDamage)
			if synthBest.MaxDamage > paperBest.MaxDamage {
				ratio += " SYNTH WORSE"
			}
		}
		t.Rows = append(t.Rows, []string{
			tr, paperName, f1(paperBest.MaxDamage), synthName, synthDamage, ratio,
		})
	}
	if len(entries) == 0 {
		t.Notes = append(t.Notes, "attack zoo empty: run impress-synth to breed and archive champions")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%d archived champion(s); every genome is evaluated against every tracker under the shared zoo defaults", len(entries)))
	}
	t.Notes = append(t.Notes,
		"a ratio > 1 means search found a strictly worse-case trace than every paper pattern for that tracker")
	return t, nil
}
