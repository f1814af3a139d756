package synth

import (
	"context"
	"errors"
	"testing"

	"impress/internal/attack"
	"impress/internal/errs"
	"impress/internal/experiments"
	"impress/internal/resultstore"
	"impress/internal/security"
)

// testConfig is a small but real search budget: quick enough for CI,
// big enough to refine the seeded archetypes.
func testConfig(tracker string) Config {
	return Config{
		Tracker:     tracker,
		Seed:        1,
		Population:  16,
		Generations: 6,
		Evaluator:   experiments.NewRunner(experiments.QuickScale()),
	}
}

func TestSynthesizeRejectsBadConfig(t *testing.T) {
	_, err := Synthesize(context.Background(), Config{Tracker: "nope",
		Evaluator: experiments.NewRunner(experiments.QuickScale())})
	if !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("unknown tracker: err = %v, want ErrBadSpec", err)
	}
	_, err = Synthesize(context.Background(), Config{Tracker: "graphene"})
	if !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("nil evaluator: err = %v, want ErrBadSpec", err)
	}
}

// TestSynthesizeDeterministic locks the search's core contract: one
// (tracker, seed, budget) triple names exactly one champion, across
// runs and fresh evaluators.
func TestSynthesizeDeterministic(t *testing.T) {
	run := func() Report {
		rep, err := Synthesize(context.Background(), testConfig("abacus"))
		if err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Champion != b.Champion || a.ChampionKey != b.ChampionKey {
		t.Fatalf("same seed diverged:\n  %s (%s)\n  %s (%s)",
			a.Champion, a.ChampionKey, b.Champion, b.ChampionKey)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history lengths diverged: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("generation %d diverged: %+v vs %+v", i, a.History[i], b.History[i])
		}
	}
	if a.Champion == "" || a.ChampionDamage <= 0 {
		t.Fatalf("degenerate champion: %+v", a)
	}
}

// TestSynthesizeBeatsPaperOnABACuS is the acceptance property: against
// ABACuS (shared counters, eviction without inheritance) the search
// must find a trace strictly worse for the defender than all five
// paper patterns.
func TestSynthesizeBeatsPaperOnABACuS(t *testing.T) {
	rep, err := Synthesize(context.Background(), testConfig("abacus"))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !rep.BeatsPaper() {
		t.Fatalf("champion %s damage %.1f does not beat paper best %q at %.1f",
			rep.Champion, rep.ChampionDamage, rep.PaperBestPattern, rep.PaperBestDamage)
	}
	// The champion's fitness must reproduce exactly outside the engine.
	cfg, pattern, err := rep.ChampionSpec.SecurityConfig()
	if err != nil {
		t.Fatalf("champion spec: %v", err)
	}
	res, err := security.RunContext(context.Background(), cfg, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDamage != rep.ChampionDamage {
		t.Fatalf("champion replay damage %.6f != reported %.6f", res.MaxDamage, rep.ChampionDamage)
	}
}

// stubEvaluator counts evaluation batches and scores genomes by slot
// count — enough structure for the engine's plumbing tests without the
// harness.
type stubEvaluator struct{ batches, specs int }

func (s *stubEvaluator) EvaluateAttacks(_ context.Context, specs []resultstore.AttackSpec) ([]security.Result, error) {
	s.batches++
	s.specs += len(specs)
	out := make([]security.Result, len(specs))
	for i, sp := range specs {
		out[i] = security.Result{Pattern: sp.Pattern, MaxDamage: float64(len(sp.Pattern))}
	}
	return out, nil
}

func TestSynthesizeEvaluatesOneBatchPerGeneration(t *testing.T) {
	ev := &stubEvaluator{}
	cfg := Config{Tracker: "graphene", Seed: 7, Population: 8, Generations: 3, Evaluator: ev}
	rep, err := Synthesize(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	// One paper-baseline batch plus one batch per generation.
	if want := 1 + cfg.Generations; ev.batches != want {
		t.Fatalf("batches = %d, want %d", ev.batches, want)
	}
	if want := len(attack.PaperPatternNames()) + cfg.Generations*cfg.Population; ev.specs != want {
		t.Fatalf("specs = %d, want %d", ev.specs, want)
	}
	if rep.Evaluated != ev.specs {
		t.Fatalf("Evaluated = %d, want %d", rep.Evaluated, ev.specs)
	}
	if len(rep.History) != cfg.Generations {
		t.Fatalf("history = %d generations, want %d", len(rep.History), cfg.Generations)
	}
}
