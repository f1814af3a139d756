package security

import (
	"context"
	"errors"
	"testing"

	"impress/internal/attack"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/errs"
	"impress/internal/trackers"
)

func ctxTestConfig() Config {
	return Config{
		Design: core.NewDesign(core.ImpressP), DesignTRH: 4000, AlphaTrue: 1,
		Tracker: func(trh float64) trackers.Tracker { return trackers.NewGraphene(trh) },
	}
}

// TestRunContextMatchesRun pins that cancellation polling is invisible:
// the harness under a live, cancellable context returns exactly what the
// uncancellable run returns.
func TestRunContextMatchesRun(t *testing.T) {
	tm := dram.DDR5()
	p := func() attack.Pattern { return &attack.Rowhammer{Row: 1 << 20, Timings: tm} }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunContext(ctx, ctxTestConfig(), p())
	if err != nil {
		t.Fatal(err)
	}
	if want := run(t, ctxTestConfig(), p()); got != want {
		t.Fatalf("cancellable run diverged from the uncancellable one:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunContextPreCancelled: a cancelled context stops the harness at
// its first access boundary with the typed error.
func TestRunContextPreCancelled(t *testing.T) {
	tm := dram.DDR5()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, ctxTestConfig(), &attack.Rowhammer{Row: 1 << 20, Timings: tm})
	if !errors.Is(err, errs.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled attack returned %v; want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestValidateTypedErrors: invalid configs are ErrBadSpec through both
// Validate and RunContext.
func TestValidateTypedErrors(t *testing.T) {
	tm := dram.DDR5()
	cfg := ctxTestConfig()
	cfg.Tracker = nil
	if err := cfg.Validate(); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("Validate() = %v, want ErrBadSpec", err)
	}
	if _, err := RunContext(context.Background(), cfg, &attack.Rowhammer{Row: 1, Timings: tm}); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("RunContext() = %v, want ErrBadSpec", err)
	}
}
