package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impress/internal/core"
	"impress/internal/sim"
	"impress/internal/trace"
)

// cli invokes the command in-process and captures its output. The
// developer's IMPRESS_CACHE is neutralized so replay tests never read
// from — or write into — a real result store.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Setenv("IMPRESS_CACHE", "")
	var out, errOut strings.Builder
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestUnknownSubcommandFails(t *testing.T) {
	code, _, stderr := cli(t, "frobnicate")
	if code == 0 {
		t.Fatal("unknown subcommand must exit non-zero")
	}
	if !strings.Contains(stderr, "frobnicate") {
		t.Fatalf("error does not name the bad subcommand: %q", stderr)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	for _, args := range [][]string{
		{"record", "-workload", "nope", "-o", filepath.Join(t.TempDir(), "x.trace")},
		{"record", "-workload", "mix:mcf,bogus", "-o", filepath.Join(t.TempDir(), "x.trace")},
		{"characterize", "-workload", "attack:bogus"},
	} {
		code, _, stderr := cli(t, args...)
		if code == 0 {
			t.Errorf("%v: must exit non-zero", args)
		}
		if stderr == "" {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
	}
}

func TestUnknownFlagFails(t *testing.T) {
	for _, sub := range []string{"characterize", "record", "info", "replay"} {
		code, _, _ := cli(t, sub, "-definitely-not-a-flag")
		if code == 0 {
			t.Errorf("%s: unknown flag must exit non-zero", sub)
		}
	}
}

func TestRecordRequiresFlags(t *testing.T) {
	if code, _, _ := cli(t, "record", "-workload", "mcf"); code == 0 {
		t.Error("record without -o must fail")
	}
	if code, _, _ := cli(t, "record", "-o", "x.trace"); code == 0 {
		t.Error("record without -workload must fail")
	}
}

// TestRecordInfoAgree records a co-run mix and checks info reports the
// same header fields the recording was made with.
func TestRecordInfoAgree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corun.trace")
	const spec = "mix:mcf,copy,attack:hammer"
	code, stdout, stderr := cli(t, "record",
		"-workload", spec, "-cores", "3", "-n", "500", "-seed", "9", "-o", path)
	if code != 0 {
		t.Fatalf("record failed (%d): %s", code, stderr)
	}
	if !strings.Contains(stdout, spec) || !strings.Contains(stdout, "3 cores x 500 requests") {
		t.Fatalf("record summary wrong: %q", stdout)
	}

	code, stdout, stderr = cli(t, "info", path)
	if code != 0 {
		t.Fatalf("info failed (%d): %s", code, stderr)
	}
	for _, want := range []string{
		"name:      " + spec,
		"seed:      9",
		"line size: 64 B",
		"cores:     3",
		"requests:  1500 total",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("info output missing %q:\n%s", want, stdout)
		}
	}
}

func TestInfoMissingFileFails(t *testing.T) {
	code, _, stderr := cli(t, "info", filepath.Join(t.TempDir(), "absent.trace"))
	if code == 0 || stderr == "" {
		t.Fatalf("info on a missing file must fail with a diagnostic (%d, %q)", code, stderr)
	}
}

// TestReplayTruncatedFileFailsCleanly corrupts a valid recording by
// truncation and checks replay reports an error instead of panicking or
// simulating garbage.
func TestReplayTruncatedFileFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gcc.trace")
	if code, _, stderr := cli(t, "record", "-workload", "gcc", "-cores", "2", "-n", "2000", "-o", path); code != 0 {
		t.Fatalf("record failed: %s", stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.trace")
	if err := os.WriteFile(trunc, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := cli(t, "replay", "-warmup", "100", "-instructions", "500", trunc)
	if code == 0 {
		t.Fatal("replaying a truncated trace must fail")
	}
	if !strings.Contains(stderr, "truncated") {
		t.Fatalf("diagnostic does not mention truncation: %q", stderr)
	}
}

// TestReplayExhaustedRecordingFailsCleanly replays a recording that is
// too short for the requested run: the CLI must turn the replay
// generator's exhaustion panic into a clean error exit.
func TestReplayExhaustedRecordingFailsCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.trace")
	if code, _, stderr := cli(t, "record", "-workload", "copy", "-cores", "2", "-n", "50", "-o", path); code != 0 {
		t.Fatalf("record failed: %s", stderr)
	}
	code, _, stderr := cli(t, "replay", "-warmup", "10000", "-instructions", "50000", path)
	if code == 0 {
		t.Fatal("replaying an exhausted recording must fail")
	}
	if !strings.Contains(stderr, "exhausted") {
		t.Fatalf("diagnostic does not explain the exhaustion: %q", stderr)
	}
}

// TestReplayMatchesLiveRun is the CLI half of the acceptance criterion:
// record -workload mcf, replay the file, and the printed performance
// summary must match a live sim.Run of the same configuration exactly, in
// both clock modes.
func TestReplayMatchesLiveRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.trace")
	if code, _, stderr := cli(t, "record", "-workload", "mcf", "-cores", "2", "-n", "4000", "-o", path); code != 0 {
		t.Fatalf("record failed: %s", stderr)
	}
	for _, clock := range []string{"event", "cycle"} {
		code, stdout, stderr := cli(t, "replay",
			"-warmup", "2000", "-instructions", "10000", "-clock", clock, path)
		if code != 0 {
			t.Fatalf("replay (%s) failed: %s", clock, stderr)
		}

		w, err := trace.WorkloadByName("mcf")
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig(w, core.NewDesign(core.NoRP), sim.TrackerGraphene)
		cfg.Cores = 2
		cfg.WarmupInstructions = 2000
		cfg.RunInstructions = 10_000
		if clock == "cycle" {
			cfg.Clock = sim.ClockCycleAccurate
		}
		live, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}

		ipcLine := fmt.Sprintf("IPC (sum/core):  %.3f", live.WeightedIPCSum)
		for _, ipc := range live.IPC {
			ipcLine += fmt.Sprintf(" %.3f", ipc)
		}
		for _, want := range []string{
			ipcLine,
			fmt.Sprintf("cycles:          %d", live.Cycles),
			fmt.Sprintf("demand ACTs:     %d", live.Mem.DemandACTs),
		} {
			if !strings.Contains(stdout, want) {
				t.Errorf("replay (%s) output missing %q:\n%s", clock, want, stdout)
			}
		}
	}
}

// TestReplayUsesRecordedSeed checks the CLI honors the trace header's
// seed by default: a recording made at -seed 9 replays bit-identically
// to the live seed-9 run under a randomized tracker without the user
// repeating -seed on the replay command line.
func TestReplayUsesRecordedSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seeded.trace")
	if code, _, stderr := cli(t, "record", "-workload", "mcf", "-cores", "2", "-n", "4000", "-seed", "9", "-o", path); code != 0 {
		t.Fatalf("record failed: %s", stderr)
	}
	code, stdout, stderr := cli(t, "replay",
		"-tracker", "para", "-warmup", "2000", "-instructions", "10000", path)
	if code != 0 {
		t.Fatalf("replay failed: %s", stderr)
	}

	w, err := trace.WorkloadByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(w, core.NewDesign(core.NoRP), sim.TrackerPARA)
	cfg.Cores = 2
	cfg.WarmupInstructions = 2000
	cfg.RunInstructions = 10_000
	cfg.Seed = 9
	live, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("cycles:          %d", live.Cycles)
	if !strings.Contains(stdout, want) {
		t.Errorf("replay did not use the recorded seed; missing %q:\n%s", want, stdout)
	}
}

func TestCharacterizeSingleWorkload(t *testing.T) {
	code, stdout, stderr := cli(t, "-n", "5000", "-workload", "attack:manysided")
	if code != 0 {
		t.Fatalf("characterize failed: %s", stderr)
	}
	if !strings.Contains(stdout, "attack:manysided") {
		t.Fatalf("characterization missing workload row:\n%s", stdout)
	}
}

// TestReplayCacheSeedSemantics locks the store keying of replays: a
// replay at the recorded seed shares the live run's cache entry, while a
// -seed override bypasses the store entirely (it is neither the recorded
// run nor the live run at the new seed, so caching it would poison both).
func TestReplayCacheSeedSemantics(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "gcc.trace")
	cache := filepath.Join(dir, "store")
	if code, _, stderr := cli(t, "record", "-workload", "gcc", "-n", "20000", "-o", tracePath); code != 0 {
		t.Fatalf("record failed: %s", stderr)
	}
	base := []string{"replay", "-design", "impress-p", "-warmup", "1000", "-instructions", "5000", "-cache-dir", cache}

	code, cold, stderr := cli(t, append(base, tracePath)...)
	if code != 0 {
		t.Fatalf("cold replay failed (%d): %s", code, stderr)
	}
	if strings.Contains(stderr, "served from cache") {
		t.Fatalf("cold replay cannot be a cache hit: %s", stderr)
	}

	code, warm, stderr := cli(t, append(base, tracePath)...)
	if code != 0 || !strings.Contains(stderr, "served from cache") {
		t.Fatalf("warm replay should hit the store (%d): %s", code, stderr)
	}
	if warm != cold {
		t.Fatal("cached replay output differs from the live replay")
	}

	// A foreign seed must bypass the store: no hit on the recorded run's
	// entry, and nothing written that a later run could be served.
	foreign := append(append([]string{}, base...), "-seed", "99", tracePath)
	for i := 0; i < 2; i++ {
		code, _, stderr = cli(t, foreign...)
		if code != 0 {
			t.Fatalf("seed-override replay failed (%d): %s", code, stderr)
		}
		if !strings.Contains(stderr, "cache bypassed") || strings.Contains(stderr, "served from cache") {
			t.Fatalf("seed-override replay must bypass the store: %s", stderr)
		}
	}

	// An explicit -seed equal to the recording's keeps the contract and
	// the cache hit.
	same := append(append([]string{}, base...), "-seed", "1", tracePath)
	code, out, stderr := cli(t, same...)
	if code != 0 || !strings.Contains(stderr, "served from cache") {
		t.Fatalf("explicit matching seed should still hit (%d): %s", code, stderr)
	}
	if out != cold {
		t.Fatal("matching-seed replay output differs")
	}
}

// TestImportReplayEndToEnd drives a DRAMsim-style capture through
// import, info and replay: the imported file must carry the
// "import:..." name, report its request count from the index, replay
// through the full simulator, and — because imported names resolve to
// no generator — be cached by file content, with cache hits surviving
// any -seed flag (imported replays always run at the recorded seed).
func TestImportReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "capture.log")
	var log strings.Builder
	log.WriteString("# synthetic dramsim capture\n")
	for i := 0; i < 40_000; i++ {
		op := "READ"
		if i%7 == 0 {
			op = "WRITE"
		}
		fmt.Fprintf(&log, "%#x %s %d\n", uint64(i%512)*64, op, i*3)
	}
	if err := os.WriteFile(logPath, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(dir, "capture.trace")
	code, stdout, stderr := cli(t, "import", "-format", "dramsim", "-o", tracePath, logPath)
	if code != 0 {
		t.Fatalf("import failed (%d): %s", code, stderr)
	}
	if !strings.Contains(stdout, "imported dramsim:capture.log: 40000 requests") {
		t.Fatalf("import summary missing: %q", stdout)
	}

	code, stdout, stderr = cli(t, "info", tracePath)
	if code != 0 {
		t.Fatalf("info failed (%d): %s", code, stderr)
	}
	for _, want := range []string{"name:      import:dramsim:capture.log", "cores:     1", "requests:  40000 total"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("info output missing %q:\n%s", want, stdout)
		}
	}

	cache := filepath.Join(dir, "store")
	base := []string{"replay", "-warmup", "1000", "-instructions", "5000", "-cache-dir", cache}
	code, cold, stderr := cli(t, append(base, tracePath)...)
	if code != 0 {
		t.Fatalf("imported replay failed (%d): %s", code, stderr)
	}
	if !strings.Contains(cold, "trace:           import:dramsim:capture.log (1 cores, seed 1)") {
		t.Fatalf("replay header missing the imported trace line:\n%s", cold)
	}

	// Content-keyed caching: warm hit, identical output, and no seed
	// bypass even with an explicit -seed (the recorded seed governs).
	for _, args := range [][]string{
		append(base, tracePath),
		append(append([]string{}, base...), "-seed", "99", tracePath),
	} {
		code, warm, stderr := cli(t, args...)
		if code != 0 || !strings.Contains(stderr, "served from cache") {
			t.Fatalf("imported replay %v should hit the store (%d): %s", args, code, stderr)
		}
		if strings.Contains(stderr, "cache bypassed") {
			t.Fatalf("imported replay must never bypass by seed: %s", stderr)
		}
		if warm != cold {
			t.Fatal("cached imported replay output differs from the cold run")
		}
	}
}

// TestImportRejectsBadInputCLI pins the import subcommand's usage
// errors: unknown formats and unparseable lines exit 2 with a
// diagnostic and leave no partial output file behind.
func TestImportRejectsBadInputCLI(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "bad.log")
	if err := os.WriteFile(logPath, []byte("not a capture\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"import", "-o", filepath.Join(dir, "x.trace"), logPath},
		{"import", "-format", "nonesuch", "-o", filepath.Join(dir, "x.trace"), logPath},
		{"import", "-format", "dramsim", "-o", filepath.Join(dir, "x.trace"), logPath},
	} {
		code, _, stderr := cli(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (%s)", args, code, stderr)
		}
		if stderr == "" {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
		if _, err := os.Stat(filepath.Join(dir, "x.trace")); !os.IsNotExist(err) {
			t.Errorf("%v: partial output file left behind", args)
		}
	}
}
