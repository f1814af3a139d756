package trackers

import (
	"testing"

	"impress/internal/clm"
	"impress/internal/stats"
)

// Component microbenchmarks: per-activation cost of each tracker. These
// bound the simulation overhead of the tracking layer and document the
// relative hardware complexity ordering (PARA < MINT < PRAC < Graphene ~
// Mithril).

func BenchmarkGrapheneOnActivation(b *testing.B) {
	g := NewGraphene(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.OnActivation(int64(i%1024), clm.One)
	}
}

func BenchmarkGrapheneAdversarialSpread(b *testing.B) {
	// Worst case: more distinct rows than entries, constant eviction.
	g := NewGraphene(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.OnActivation(int64(i), clm.One)
	}
}

func BenchmarkPARAOnActivation(b *testing.B) {
	p := NewPARA(4000, stats.NewRand(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.OnActivation(int64(i%1024), clm.One)
	}
}

func BenchmarkMithrilOnActivation(b *testing.B) {
	m := NewMithril(4000, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.OnActivation(int64(i%1024), clm.One)
	}
}

func BenchmarkMithrilRFM(b *testing.B) {
	m := NewMithril(4000, 80)
	for i := 0; i < 4096; i++ {
		m.OnActivation(int64(i%512), clm.One)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OnActivation(int64(i%512), clm.One)
		if i%80 == 79 {
			m.OnRFM()
		}
	}
}

func BenchmarkMINTOnActivation(b *testing.B) {
	m := NewMINT(80, stats.NewRand(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.OnActivation(int64(i%1024), clm.One)
		if i%80 == 79 {
			m.OnRFM()
		}
	}
}

func BenchmarkPRACOnActivation(b *testing.B) {
	p := NewPRAC(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.OnActivation(int64(i%65536), clm.One)
	}
}

// BenchmarkFullTableEviction is the Space-Saving worst case at the
// largest table sizes the paper provisions (T* = 2K): every activation
// names a new row on a full table, so each one evicts the minimum entry
// through the table's tournament index.
func BenchmarkFullTableEviction(b *testing.B) {
	for _, tr := range []Tracker{NewGraphene(2000), NewMithril(2000, 80), NewABACuS(100)} {
		b.Run(tr.Name(), func(b *testing.B) {
			row := int64(0)
			for ; row < 4096; row++ { // fill the table and build its index
				tr.OnActivation(row, clm.One)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.OnActivation(row, clm.One)
				row++
			}
		})
	}
}
