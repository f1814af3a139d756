package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"impress"
)

// goldenDir holds the repository's golden table renderings; the
// benchmark only reads it.
const goldenDir = "internal/experiments/testdata/golden"

// benchScale is the experiment scale of the repository's bench_test.go:
// two representative workloads with short runs.
func benchScale() impress.ExperimentScale {
	return impress.ExperimentScale{
		Name: "bench", Warmup: 10_000, Run: 50_000,
		Workloads: []string{"gcc", "copy"},
	}
}

// sweepBench regenerates every table from a warm result store. Set-up
// runs the same sweep cold into an empty store; each measured sweep
// must render the same bytes as the cold one and simulate nothing. The
// experiment universe fixes its own seeds, so the workload seed is not
// used.
type sweepBench struct {
	dir  string
	lab  *impress.Lab
	cold map[string][]byte
	st   layerCounts
}

func (s *sweepBench) setup(ctx context.Context, b *bench) error {
	golden := map[string][]byte{}
	for _, id := range goldenIDs {
		data, err := os.ReadFile(filepath.Join(goldenDir, id+".txt"))
		if err != nil {
			return fmt.Errorf("golden tables: %w", err)
		}
		golden[id] = data
	}
	var err error
	if s.dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
		return err
	}
	store, err := impress.OpenResultStore(s.dir)
	if err != nil {
		return err
	}
	s.lab, err = impress.NewLab(impress.WithResultStore(store), impress.WithParallelism(1),
		impress.WithProgress(b.rec.progress))
	if err != nil {
		return err
	}

	b.rec.begin("Lab.Experiments")
	start := time.Now()
	tables, err := s.lab.Experiments(ctx, benchScale())
	b.setupTimes = append(b.setupTimes, time.Since(start).Seconds())
	b.rec.end()
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	s.cold = render(tables)
	err = tablesMatch(s.cold, golden)
	if order := strings.Join(tableIDs, "\n") + "\n"; string(s.cold[""]) != order {
		err = fmt.Errorf("rendered tables %q, the benchmark declares %q", s.cold[""], order)
	} else if err != nil {
		err = fmt.Errorf("against %s: %w", goldenDir, err)
	}
	b.rep.check(err == nil, "cold sweep: %v", err)

	return filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		s.st.storeFiles++
		s.st.storeBytes += float64(info.Size())
		return nil
	})
}

func (s *sweepBench) op(ctx context.Context, b *bench, _ bool) error {
	tables, err := s.lab.Experiments(ctx, benchScale())
	if err != nil {
		return err
	}
	if sims := b.rec.openSims(); sims > 0 {
		return fmt.Errorf("warm sweep simulated %d specs or attacks; the store should have served them", sims)
	}
	got := render(tables)
	if err := tablesMatch(got, s.cold); err != nil {
		return fmt.Errorf("warm sweep against the cold sweep: %w", err)
	}
	return nil
}

func (s *sweepBench) call() string { return "Lab.Experiments" }

func (s *sweepBench) minReps() int { return 1 }

func (s *sweepBench) counts() layerCounts { return s.st }

func (s *sweepBench) close() error {
	if s.dir == "" {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// render returns each table's text by ID, keeping the render order under
// the empty ID.
func render(tables []*impress.ExperimentTable) map[string][]byte {
	out := map[string][]byte{}
	var order bytes.Buffer
	for _, t := range tables {
		var buf bytes.Buffer
		t.Render(&buf)
		out[t.ID] = buf.Bytes()
		fmt.Fprintln(&order, t.ID)
	}
	out[""] = order.Bytes()
	return out
}

// tablesMatch reports the first table of want that got lacks or renders
// differently.
func tablesMatch(got, want map[string][]byte) error {
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if !bytes.Equal(got[id], want[id]) {
			if id == "" {
				return fmt.Errorf("tables rendered in a different order")
			}
			return fmt.Errorf("table %s differs", id)
		}
	}
	return nil
}
