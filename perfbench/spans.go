package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"

	"impress"
)

// span is one timed interval of the benchmark's calls into the public
// API: an operation ("Lab.Run", "Lab.Experiments", a set-up step), or a
// child derived from the Progress events the operation emitted — a
// simulation spec ("spec:<label>"), an attack evaluation
// ("attack:<label>") or a rendered table ("table:<id>").
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for an operation
	Phase   string `json:"phase"`  // "setup", "untraced", "traced" or "gen"
	Name    string `json:"name"`
	Outcome string `json:"outcome,omitempty"` // "hit" or "sim" for specs and attacks
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// recorder turns one operation at a time, and the Progress events it
// emits, into spans kept in memory. Every operation runs serially, so
// at most one spec or attack is open at once.
type recorder struct {
	t0    time.Time
	phase string
	spans []span
	op    int // index of the open operation span, -1 when none
	open  int // index of the open spec/attack span, -1 when none
	last  int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), op: -1, open: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) int {
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// begin opens an operation span.
func (r *recorder) begin(name string) {
	t := r.now()
	r.op, r.open, r.last = r.add(span{Phase: r.phase, Name: name, StartNs: t}), -1, t
}

// end closes the open operation span.
func (r *recorder) end() {
	r.spans[r.op].EndNs = r.now()
	r.op = -1
}

// progress records one event of the open operation.
func (r *recorder) progress(p impress.Progress) {
	if r.op < 0 {
		return
	}
	t := r.now()
	parent := r.spans[r.op].ID
	switch p.Kind {
	case impress.ProgressSpecStarted, impress.ProgressAttackStarted:
		name := "spec:"
		if p.Kind == impress.ProgressAttackStarted {
			name = "attack:"
		}
		r.open = r.add(span{Parent: parent, Phase: r.phase, Name: name + p.Spec, StartNs: t})
	case impress.ProgressSpecCacheHit, impress.ProgressAttackCacheHit,
		impress.ProgressSpecFinished, impress.ProgressAttackFinished:
		if r.open < 0 {
			return
		}
		s := &r.spans[r.open]
		s.EndNs, s.Outcome = t, "sim"
		if p.Kind == impress.ProgressSpecCacheHit || p.Kind == impress.ProgressAttackCacheHit {
			s.Outcome = "hit"
		}
		r.open = -1
	case impress.ProgressTableRendered:
		// A table's span runs from the previous table (or the start of
		// the operation) to its own render event.
		r.add(span{Parent: parent, Phase: r.phase, Name: "table:" + p.Table, StartNs: r.last, EndNs: t})
		r.last = t
	}
}

// openSims counts the specs and attacks the open operation simulated
// rather than served from the store.
func (r *recorder) openSims() int {
	n := 0
	for _, s := range r.spans[r.op+1:] {
		if s.Outcome == "sim" {
			n++
		}
	}
	return n
}

// spanStats summarises the spans of one phase.
type spanStats struct {
	ops int
	// durations in seconds, keyed by span name for operations and
	// tables, and by kind+outcome ("spec.hit", "attack.sim", ...) for
	// specs and attacks.
	byName map[string][]float64
}

func (r *recorder) stats(phase string) spanStats {
	st := spanStats{byName: map[string][]float64{}}
	for _, s := range r.spans {
		if s.Phase != phase {
			continue
		}
		key := s.Name
		if s.Parent == 0 {
			st.ops++
		} else if kind, _, ok := strings.Cut(s.Name, ":"); ok && kind != "table" {
			key = kind + "." + s.Outcome
		}
		st.byName[key] = append(st.byName[key], s.seconds())
	}
	return st
}

// perOp returns how many spans of key one operation had on average.
func (st spanStats) perOp(key string) float64 {
	if st.ops == 0 {
		return 0
	}
	return float64(len(st.byName[key])) / float64(st.ops)
}

// writeJSONL writes the spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
