package main

import (
	"testing"

	"impress"
)

func TestRecorderSpans(t *testing.T) {
	r := newRecorder()
	r.progress(impress.Progress{Kind: impress.ProgressSpecStarted}) // no open operation: ignored
	r.phase = "traced"
	for range 2 {
		r.begin("Lab.Experiments")
		r.progress(impress.Progress{Kind: impress.ProgressSpecStarted, Spec: "gcc/impress-p/graphene"})
		r.progress(impress.Progress{Kind: impress.ProgressSpecCacheHit, Spec: "gcc/impress-p/graphene"})
		r.progress(impress.Progress{Kind: impress.ProgressTableRendered, Table: "fig3"})
		r.progress(impress.Progress{Kind: impress.ProgressAttackStarted, Spec: "hammer"})
		r.progress(impress.Progress{Kind: impress.ProgressAttackFinished, Spec: "hammer"})
		if got := r.openSims(); got != 1 {
			t.Errorf("open operation simulated %d, want the one attack", got)
		}
		r.progress(impress.Progress{Kind: impress.ProgressTableRendered, Table: "security"})
		r.end()
	}
	if len(r.spans) != 10 {
		t.Fatalf("recorded %d spans, want 2 operations with 4 children each", len(r.spans))
	}
	for _, s := range r.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	op, fig3, sec := r.spans[5], r.spans[7], r.spans[9]
	if op.Parent != 0 || fig3.Parent != op.ID || fig3.Name != "table:fig3" {
		t.Errorf("second operation's spans: %+v %+v", op, fig3)
	}
	// Table spans tile the operation: each starts where the last ended.
	if fig3.StartNs != op.StartNs || sec.StartNs != fig3.EndNs {
		t.Errorf("table spans do not tile: op %+v fig3 %+v security %+v", op, fig3, sec)
	}

	st := r.stats("traced")
	if st.ops != 2 {
		t.Errorf("ops = %d, want 2", st.ops)
	}
	for key, want := range map[string]float64{"spec.hit": 1, "attack.sim": 1, "table:fig3": 1, "spec.sim": 0} {
		if got := st.perOp(key); got != want {
			t.Errorf("perOp(%s) = %v, want %v", key, got, want)
		}
	}
	if n := len(r.stats("setup").byName); n != 0 {
		t.Errorf("setup phase has %d span kinds, want none", n)
	}
}
