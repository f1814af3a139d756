package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestHighPercentile pins the ten-samples-beyond rule: the reported
// percentile is the highest candidate whose nearest-rank position
// leaves at least ten samples above it.
func TestHighPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		ok     bool
		p, val float64
	}{
		{n: 0},
		{n: 19}, // the median leaves only 9 beyond
		{n: 20, ok: true, p: 50, val: 10},
		{n: 39, ok: true, p: 50, val: 20},
		{n: 40, ok: true, p: 75, val: 30},
		{n: 94, ok: true, p: 75, val: 71}, // p90 would leave 9
		{n: 100, ok: true, p: 90, val: 90},
		{n: 1000, ok: true, p: 99, val: 990},
		{n: 10000, ok: true, p: 99.9, val: 9990},
	} {
		p, v, ok := highPercentile(seq(c.n))
		if ok != c.ok || p != c.p || v != c.val {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", c.n, p, v, ok, c.p, c.val, c.ok)
		}
		if ok && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestSetTail(t *testing.T) {
	r := newReport(nil)
	setTail(r, "x_ms", seq(40))
	want := map[string]float64{"x_ms_p50": 20.5, "x_ms_hi": 30, "x_ms_hi_pct": 75, "x_ms_n": 40}
	for k, v := range want {
		if r.values[k] != v {
			t.Errorf("%s = %v, want %v", k, r.values[k], v)
		}
	}
	// Too few samples: every figure reads 0 but the count.
	r = newReport(nil)
	setTail(r, "y_s", seq(3))
	if r.values["y_s_hi"] != 0 || r.values["y_s_hi_pct"] != 0 || r.values["y_s_n"] != 3 || r.values["y_s_p50"] != 2 {
		t.Errorf("short tail: %v", r.values)
	}
}
