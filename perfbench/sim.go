package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"impress"
)

// simSetups is how many times a simulation workload sets up, so that
// setup_s is a median rather than one sample. The first set-ups of a
// process also grow its heap and run slower; with nine, the median
// falls past them.
const simSetups = 9

// simBench runs one 8-core simulation per operation: the default Table
// II system with ImPress-P and Graphene at TRH 4000 on the event-driven
// clock. Set-up builds the spec and runs it once under the
// cycle-accurate clock; every measured run must equal that reference
// field for field.
type simBench struct {
	workload       string
	warmup, run    int64 // instructions per core
	seed           uint64
	lab, tracedLab *impress.Lab
	cfg            impress.SimConfig
	ref            impress.SimResult
	gen            nextTimer
	genOps         int
}

func newSimBench(workload string, warmup, run int64, seed uint64) *simBench {
	return &simBench{workload: workload, warmup: warmup, run: run, seed: seed}
}

func (s *simBench) config() (impress.SimConfig, error) {
	w, err := impress.WorkloadByName(s.workload)
	if err != nil {
		return impress.SimConfig{}, err
	}
	cfg := impress.DefaultSimConfig(w, impress.NewDesign(impress.ImpressP), impress.TrackerGraphene)
	cfg.DesignTRH = 4000
	cfg.WarmupInstructions, cfg.RunInstructions = s.warmup, s.run
	cfg.Seed = s.seed
	return cfg, nil
}

func (s *simBench) setup(ctx context.Context, b *bench) error {
	var err error
	if s.lab, err = impress.NewLab(impress.WithParallelism(1)); err != nil {
		return err
	}
	if s.tracedLab, err = impress.NewLab(impress.WithParallelism(1), impress.WithProgress(b.rec.progress)); err != nil {
		return err
	}
	for i := range simSetups {
		b.rec.begin("setup")
		start := time.Now()
		cfg, err := s.config()
		if err != nil {
			return err
		}
		ref := cfg
		ref.Clock = impress.SimClockCycleAccurate
		res, err := s.tracedLab.Run(ctx, ref)
		b.setupTimes = append(b.setupTimes, time.Since(start).Seconds())
		b.rec.end()
		if err != nil {
			return fmt.Errorf("cycle-accurate reference run: %w", err)
		}
		if i == 0 {
			s.cfg, s.ref = cfg, res
		}
		b.rep.check(i == 0 || reflect.DeepEqual(res, s.ref),
			"reference run %d: %v", i+1, diffResult(res, s.ref))
	}
	return nil
}

func (s *simBench) op(ctx context.Context, _ *bench, traced bool) error {
	lab := s.lab
	if traced {
		lab = s.tracedLab
	}
	return s.runChecked(ctx, lab, s.cfg)
}

// genOp runs the operation with every core's trace generator wrapped in
// a timer.
func (s *simBench) genOp(ctx context.Context, _ *bench) error {
	cfg := s.cfg
	cfg.Workload.NewGenerator = timeGenerators(cfg.Workload.NewGenerator, &s.gen)
	s.genOps++
	return s.runChecked(ctx, s.lab, cfg)
}

func (s *simBench) runChecked(ctx context.Context, lab *impress.Lab, cfg impress.SimConfig) error {
	res, err := lab.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(res, s.ref) {
		return diffResult(res, s.ref)
	}
	return nil
}

// diffResult describes how a result departs from the reference.
func diffResult(got, want impress.SimResult) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	return fmt.Errorf("result differs from the cycle-accurate reference: cycles %d vs %d, reads %d vs %d, ipc %v vs %v",
		got.Cycles, want.Cycles, got.Mem.Reads, want.Mem.Reads, got.WeightedIPCSum, want.WeightedIPCSum)
}

func (s *simBench) call() string { return "Lab.Run" }

func (s *simBench) minReps() int { return 3 }

func (s *simBench) counts() layerCounts {
	c := layerCounts{
		res:          s.ref,
		instructions: float64(int64(s.cfg.Cores) * (s.warmup + s.run)),
	}
	if s.genOps > 0 {
		c.nextCalls = float64(s.gen.calls) / float64(s.genOps)
		c.nextNs = float64(s.gen.ns) / float64(s.genOps)
	}
	return c
}

func (s *simBench) close() error { return nil }

// nextTimer accumulates the calls to, and host time inside, wrapped
// generators' Next. A simulation calls its generators from one
// goroutine, so the counters need no synchronisation.
type nextTimer struct {
	calls, ns int64
}

// timedGen wraps one trace generator. Its type parameters stand for the
// generator interface and request type of the workload API, which the
// public package exposes only through Workload.NewGenerator's
// signature.
type timedGen[G interface {
	Name() string
	Next() R
}, R any] struct {
	inner G
	t     *nextTimer
}

func (g timedGen[G, R]) Name() string { return g.inner.Name() }

func (g timedGen[G, R]) Next() R {
	start := time.Now()
	r := g.inner.Next()
	g.t.ns += int64(time.Since(start))
	g.t.calls++
	return r
}

// timeGenerators returns a NewGenerator that wraps every generator
// newGen builds in a timedGen feeding t.
func timeGenerators[G interface {
	Name() string
	Next() R
}, R any](newGen func(int, uint64) G, t *nextTimer) func(int, uint64) G {
	return func(core int, seed uint64) G {
		return any(timedGen[G, R]{newGen(core, seed), t}).(G)
	}
}
