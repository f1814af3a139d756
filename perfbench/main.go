// Command impressbench is the ImPress reproduction's benchmark. It runs
// one workload through the public impress API, checks every output, and
// prints its metrics by name with their units; the last line of standard
// output is one JSON object with the run's result.
//
//	bash perfbench/run.sh --workload sim-copy --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the traced run:
// it profiles the program, records spans around the API calls, and
// prints the per-layer metrics. README.md describes both.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// outDir holds everything a run writes, relative to the repository
// root the benchmark runs from.
const outDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
}

func main() {
	// One P: every measured operation is serial, and on a small shared
	// host a second P only adds garbage-collector work and
	// stop-the-world synchronisation across a vCPU other tenants compete
	// for, which made peak memory and timings noisier.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impressbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", names))
	seed := fs.Uint64("seed", 1, "seed of the simulated workload's inputs (sim-* only)")
	seconds := fs.Int("seconds", 10, "seconds to measure for")
	trace := fs.Int("trace", 0, "1 for the traced run that prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "impressbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		return 2
	}
	opts := options{
		workload: *workload, seed: *seed,
		budget: time.Duration(*seconds) * time.Second, traced: *trace == 1,
	}
	if err := runBench(ctx, opts, newWorkload(opts), stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "impressbench: %s: %v\n", opts.workload, err)
		return 1
	}
	return 0
}
