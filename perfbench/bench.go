package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"impress"
)

// workload is one benchmark workload. Every operation runs serially in
// this process: the host has two CPUs and other tenants, so parallel
// runs would measure contention rather than the program.
type workload interface {
	// setup prepares the measured operation, appending the host time
	// of each set-up it performs to b.setupTimes.
	setup(ctx context.Context, b *bench) error
	// op performs one measured operation and checks its output. The
	// traced run passes traced=true to attach its Progress spans.
	op(ctx context.Context, b *bench, traced bool) error
	// call names the API call one operation makes, for its span.
	call() string
	// minReps is the least number of operations one measurement makes.
	minReps() int
	// counts returns what the program itself reports about one
	// operation, for the traced run's per-layer metrics.
	counts() layerCounts
	// close releases what setup acquired.
	close() error
}

// generatorTimer is implemented by workloads whose operation can run
// with every trace generator wrapped in a timer.
type generatorTimer interface {
	genOp(ctx context.Context, b *bench) error
}

// layerCounts are the exact counts the program returns about one
// measured operation: the simulation result (zero for a sweep), its
// simulated instructions, the wrapped generators' calls, and the
// result store left by set-up.
type layerCounts struct {
	res          impress.SimResult
	instructions float64
	nextCalls    float64 // per operation
	nextNs       float64 // host time inside Next, per operation
	storeFiles   float64
	storeBytes   float64
}

var workloads = map[string]func(options) workload{
	"sim-copy":   func(o options) workload { return newSimBench("copy", 20_000, 100_000, o.seed) },
	"sim-gcc":    func(o options) workload { return newSimBench("gcc", 2_000_000, 8_000_000, o.seed) },
	"sweep-warm": func(options) workload { return &sweepBench{} },
}

// phaseTimes are the per-operation measurements of one phase.
type phaseTimes struct {
	walls, allocBytes, allocs []float64
}

type bench struct {
	rep        *report
	rec        *recorder
	setupTimes []float64
}

func runBench(ctx context.Context, opts options, w workload, stdout, stderr io.Writer) (err error) {
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b := &bench{rep: newReport(stderr), rec: newRecorder()}
	if !opts.traced {
		b.rec.phase = "setup"
		if err := w.setup(ctx, b); err != nil {
			return err
		}
		pt := b.loop(ctx, w, "untraced", opts.budget, w.minReps(), w.op)
		if err := ctx.Err(); err != nil {
			return err
		}
		b.endToEnd(pt)
		return b.rep.write(stdout, endToEnd)
	}
	return b.traced(ctx, opts, w, stdout)
}

// loop runs op until the budget is spent and at least minReps
// operations ran, stopping early at the first failure. Each operation
// starts after a forced collection, so it does not pay for its
// predecessor's garbage.
func (b *bench) loop(ctx context.Context, w workload, phase string, budget time.Duration, minReps int,
	op func(context.Context, *bench, bool) error) phaseTimes {
	b.rec.phase = phase
	var pt phaseTimes
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.rec.begin(w.call())
		t := time.Now()
		err := op(ctx, b, phase == "traced")
		wall := time.Since(t)
		b.rec.end()
		runtime.ReadMemStats(&m1)
		b.rep.check(err == nil, "%s operation %d: %v", phase, i+1, err)
		if err != nil {
			break
		}
		pt.walls = append(pt.walls, wall.Seconds())
		pt.allocBytes = append(pt.allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		pt.allocs = append(pt.allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	return pt
}

func (b *bench) endToEnd(pt phaseTimes) {
	b.rep.set("wall_s", median(pt.walls))
	b.rep.set("setup_s", median(b.setupTimes))
	b.rep.set("alloc_mb", median(pt.allocBytes)/1e6)
	b.rep.set("allocs_m", median(pt.allocs)/1e6)
	b.rep.set("max_rss_mb", maxRSSBytes()/1e6)
}

// maxRSSBytes returns the process's peak resident set size.
func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// profiled runs fn under the CPU profiler and returns the profile.
func profiled(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// traced is the traced run: a profiled set-up, then a third of the
// budget each for operations with tracing off (the base of the overhead
// ratio), operations under the CPU profiler with Progress spans, and —
// for simulations — operations whose trace generators are wrapped in a
// timer. The phases are kept apart so that no instrument distorts
// another's numbers.
func (b *bench) traced(ctx context.Context, opts options, w workload, stdout io.Writer) error {
	b.rec.phase = "setup"
	setupProf, err := profiled(func() error { return w.setup(ctx, b) })
	if err != nil {
		return err
	}
	third := opts.budget / 3
	untraced := b.loop(ctx, w, "untraced", third, 1, w.op)
	var tracedPT phaseTimes
	measureProf, err := profiled(func() error {
		tracedPT = b.loop(ctx, w, "traced", third, 1, w.op)
		return nil
	})
	if err != nil {
		return err
	}
	var gen phaseTimes
	if g, ok := w.(generatorTimer); ok {
		gen = b.loop(ctx, w, "gen", third, 1, func(ctx context.Context, b *bench, _ bool) error {
			return g.genOp(ctx, b)
		})
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	base := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d", opts.workload, opts.seed))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	for suffix, data := range map[string][]byte{".setup.pprof": setupProf, ".measure.pprof": measureProf} {
		if err := os.WriteFile(base+suffix, data, 0o644); err != nil {
			return err
		}
	}
	if err := b.rec.writeJSONL(base + ".spans.jsonl"); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "profiles: %s.{setup,measure}.pprof  spans: %s.spans.jsonl\n", base, base)
	if err := b.perLayer(setupProf, measureProf, untraced, tracedPT, gen, w.counts()); err != nil {
		return err
	}
	return b.rep.write(stdout, perLayer)
}

// perLayer derives the per-layer metrics from the two profiles, the
// phase timings, the recorded spans and the program's own counts. A
// layer the workload does not exercise reads 0.
func (b *bench) perLayer(setupProf, measureProf []byte, untraced, traced, gen phaseTimes, c layerCounts) error {
	r := b.rep
	mp, err := layerSamples(measureProf)
	if err != nil {
		return err
	}
	sp, err := layerSamples(setupProf)
	if err != nil {
		return err
	}
	ops := float64(len(traced.walls))
	perOpNs := func(layer string) float64 { return mp.selfNs(layer) / ops }

	r.set("profile.samples", float64(mp.total))
	for _, l := range profiledLayers {
		r.set(l+".self_share", mp.share(l))
	}

	res := c.res
	m := res.Mem
	r.set("memctrl.host_ns_per_req", perOpNs("memctrl")/float64(m.Reads+m.Writes))
	r.set("memctrl.reads", float64(m.Reads))
	r.set("memctrl.writes", float64(m.Writes))
	r.set("memctrl.row_hits", float64(m.RowHits))
	r.set("memctrl.row_conflicts", float64(m.RowConflicts))
	r.set("memctrl.read_latency_ticks", float64(m.ReadLatencySum)/float64(m.Reads))
	r.set("dram.refreshes", float64(m.Refreshes))
	r.set("core.forced_closures", float64(m.ForcedClosures))
	r.set("trackers.host_ns_per_act", perOpNs("trackers")/float64(m.DemandACTs+m.MitigativeACTs))
	r.set("trackers.demand_acts", float64(m.DemandACTs))
	r.set("trackers.mitigative_acts", float64(m.MitigativeACTs))
	r.set("trackers.mitigations", float64(m.Mitigations))
	r.set("cpu.host_ns_per_instr", perOpNs("cpu")/c.instructions)
	r.set("cpu.instructions", c.instructions)
	r.set("cpu.weighted_ipc", res.WeightedIPCSum)
	r.set("cache.llc_hit_rate", res.LLCHitRate)
	r.set("trace.next_calls", c.nextCalls)
	r.set("trace.next_ns", c.nextNs/c.nextCalls)
	r.set("sim.cycles", float64(res.Cycles))
	r.set("sim.host_ns_per_cycle", perOpNs("sim")/float64(res.Cycles))
	r.set("sim.minstr_per_s", c.instructions/median(untraced.walls)/1e6)

	st := b.rec.stats("traced")
	r.set("sims", st.perOp("spec.sim"))
	for _, id := range tableIDs {
		r.set("table."+id+"_s", median(st.byName["table:"+id]))
	}
	r.set("resultstore.hits", st.perOp("spec.hit"))
	r.set("resultstore.attack_hits", st.perOp("attack.hit"))
	setTail(r, "resultstore.hit_ms", scale(st.byName["spec.hit"], 1e3))

	ss := b.rec.stats("setup")
	r.set("setup.profile.samples", float64(sp.total))
	r.set("setup.compress_flate.self_share", sp.share("compress_flate"))
	r.set("setup.resultstore.self_share", sp.share("resultstore"))
	r.set("setup.sims", float64(len(ss.byName["spec.sim"])))
	r.set("setup.attack_evals", float64(len(ss.byName["attack.sim"])))
	setTail(r, "setup.spec_s", ss.byName["spec.sim"])
	r.set("store.files", c.storeFiles)
	r.set("store_mb", c.storeBytes/1e6)

	u := median(untraced.walls)
	r.set("tracing.untraced_wall_s", u)
	r.set("tracing.traced_wall_s", median(traced.walls))
	r.set("tracing.overhead_pct", (median(traced.walls)/u-1)*100)
	r.set("tracing.gen_overhead_pct", (median(gen.walls)/u-1)*100)
	return nil
}

// setTail sets <prefix>_p50, <prefix>_hi (the highest percentile with
// ten samples beyond it, 0 when there are too few samples),
// <prefix>_hi_pct (which percentile that is) and <prefix>_n (the
// sample count behind both).
func setTail(r *report, prefix string, xs []float64) {
	r.set(prefix+"_p50", median(xs))
	p, v, _ := highPercentile(xs)
	r.set(prefix+"_hi", v)
	r.set(prefix+"_hi_pct", p)
	r.set(prefix+"_n", float64(len(xs)))
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
