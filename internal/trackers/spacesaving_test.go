package trackers

import (
	"reflect"
	"testing"

	"impress/internal/clm"
	"impress/internal/stats"
)

// The differential oracle for the shared Space-Saving table: the linear
// scans slotTable's tournament trees replaced, kept verbatim in spirit —
// the lowest free slot, the minimum over used slots by a full scan
// (the first slot wins ties), Mithril's maximum likewise — driving
// reference Graphene, Mithril and ABACuS side by side with the real
// ones. Every mitigation, every Count and the full slot layout must
// match after every operation.

type refTable struct {
	rows  map[int64]int
	row   []int64
	count []clm.EACT
	used  []bool
}

func newRefTable(entries int) refTable {
	return refTable{
		rows:  make(map[int64]int),
		row:   make([]int64, entries),
		count: make([]clm.EACT, entries),
		used:  make([]bool, entries),
	}
}

func (r *refTable) freeSlot() int {
	if len(r.rows) >= len(r.used) {
		return -1
	}
	for i, used := range r.used {
		if !used {
			return i
		}
	}
	return -1
}

func (r *refTable) minSlot() int {
	best := -1
	var bestCount clm.EACT
	for i := range r.count {
		if !r.used[i] {
			continue
		}
		if best == -1 || r.count[i] < bestCount {
			best = i
			bestCount = r.count[i]
		}
	}
	return best
}

func (r *refTable) maxSlot() (int, clm.EACT) {
	best := -1
	var bestCount clm.EACT
	for i := range r.count {
		if !r.used[i] {
			continue
		}
		if best == -1 || r.count[i] > bestCount {
			best = i
			bestCount = r.count[i]
		}
	}
	return best, bestCount
}

// install puts row into slot, evicting whatever row held it.
func (r *refTable) install(slot int, row int64) {
	if r.used[slot] {
		delete(r.rows, r.row[slot])
	}
	r.used[slot] = true
	r.row[slot] = row
	r.rows[row] = slot
}

func (r *refTable) reset() {
	for i := range r.used {
		r.used[i] = false
		r.count[i] = 0
	}
	r.rows = make(map[int64]int)
}

func (r *refTable) slots() []SlotState {
	var out []SlotState
	for i, u := range r.used {
		if u {
			out = append(out, SlotState{Slot: i, Row: r.row[i], Count: r.count[i]})
		}
	}
	return out
}

// refTracker is one reference tracker: its name, update rule and RFM.
type refTracker struct {
	kind        string
	t           refTable
	threshold   clm.EACT
	spillover   clm.EACT
	mitigations uint64
}

func (r *refTracker) onActivation(row int64, w clm.EACT) []int64 {
	t := &r.t
	slot, tracked := t.rows[row]
	if !tracked {
		if free := t.freeSlot(); free >= 0 {
			slot = free
			t.install(slot, row)
			t.count[slot] = 0
			if r.kind == "graphene" {
				t.count[slot] = r.spillover
			}
		} else {
			slot = t.minSlot()
			t.install(slot, row)
			switch r.kind {
			case "graphene":
				r.spillover = t.count[slot]
			case "abacus":
				t.count[slot] = 0
			}
		}
	}
	t.count[slot] += w
	if r.kind != "mithril" && t.count[slot] >= r.threshold {
		t.count[slot] = 0
		r.mitigations++
		return []int64{row}
	}
	return nil
}

func (r *refTracker) onRFM() []int64 {
	if r.kind != "mithril" {
		return nil
	}
	best, c := r.t.maxSlot()
	if best < 0 || c == 0 {
		return nil
	}
	r.t.count[best] = 0
	r.mitigations++
	return []int64{r.t.row[best]}
}

func (r *refTracker) state() State {
	s := State{Kind: r.kind, Slots: r.t.slots(), Mitigations: r.mitigations}
	if r.kind == "graphene" {
		s.Spillover = r.spillover
	}
	return s
}

// tableTracker is a real slot-table tracker as the oracle drives it.
type tableTracker interface {
	Tracker
	Snapshotter
	Count(row int64) clm.EACT
}

func newTableTracker(kind string, entries int, threshold clm.EACT) tableTracker {
	switch kind {
	case "graphene":
		return NewGrapheneRaw(entries, threshold)
	case "mithril":
		return NewMithrilRaw(entries, 80)
	default:
		return &ABACuS{threshold: threshold, table: newSlotTable(entries)}
	}
}

var oracleWeights = [...]clm.EACT{clm.One, clm.One, 2 * clm.One, clm.One/2 + 3, 1, 5 * clm.One / 4}

// checkStream decodes ops from a byte stream and replays them against
// every slot-table tracker and its reference. The first two bytes size
// the table and the row universe; each following pair is (op, arg).
func checkStream(t *testing.T, ops []byte) {
	if len(ops) < 2 {
		return
	}
	entries := 1 + int(ops[0]%12)
	universe := int64(entries) + 1 + int64(ops[1]%24)
	threshold := clm.EACT(4+ops[1]%8) * clm.One
	for _, kind := range []string{"graphene", "mithril", "abacus"} {
		live := newTableTracker(kind, entries, threshold)
		ref := &refTracker{kind: kind, t: newRefTable(entries), threshold: threshold}
		for i := 2; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			var got, want []int64
			switch op % 16 {
			case 12:
				got, want = live.OnRFM(), ref.onRFM()
			case 13:
				live.ResetWindow()
				ref.t.reset()
				ref.spillover = 0
			case 14:
				restored := newTableTracker(kind, entries, threshold)
				if err := restored.RestoreState(live.Snapshot()); err != nil {
					t.Fatalf("%s: restore: %v", kind, err)
				}
				live = restored
			default:
				row := int64(arg) % universe
				w := oracleWeights[int(op/16)%len(oracleWeights)]
				got = append([]int64(nil), live.OnActivation(row, w)...)
				want = ref.onActivation(row, w)
				if g, r := live.Count(row), ref.t.count[ref.t.rows[row]]; g != r {
					t.Fatalf("%s op %d: Count(%d) = %d, reference %d", kind, i/2, row, g, r)
				}
			}
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s op %d (%d,%d): mitigations %v, reference %v", kind, i/2, op, arg, got, want)
				}
			}
			if g, r := live.Snapshot(), ref.state(); !reflect.DeepEqual(g, r) {
				t.Fatalf("%s op %d (%d,%d): table diverged\n got %+v\nwant %+v", kind, i/2, op, arg, g, r)
			}
		}
	}
}

// oracleStream returns a deterministic pseudo-random op stream.
func oracleStream(seed uint64, n int) []byte {
	rng := stats.NewRand(seed)
	ops := make([]byte, 2*n+2)
	for i := range ops {
		ops[i] = byte(rng.Uint64n(256))
	}
	return ops
}

func FuzzSlotTableAgainstLinearScan(f *testing.F) {
	// Ties: one slot, a tiny universe and unit weights.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 1, 0, 3, 0, 2, 12, 0, 0, 4})
	// A full table evicting on every access, with RFMs in between.
	f.Add([]byte{3, 20, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 12, 0, 0, 7, 0, 8, 12, 0, 0, 9})
	// A mid-stream snapshot/restore, then a window reset.
	f.Add([]byte{2, 5, 0, 1, 16, 2, 32, 3, 14, 0, 48, 1, 0, 4, 13, 0, 0, 5, 14, 0, 0, 6})
	f.Add(oracleStream(1, 200))
	f.Add(oracleStream(2, 200))
	f.Fuzz(func(t *testing.T, ops []byte) { checkStream(t, ops) })
}

// TestSlotTableMatchesLinearScan runs long random streams through the
// oracle on every test run, beyond the fuzz seed corpus.
func TestSlotTableMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		checkStream(t, oracleStream(seed, 2000))
	}
}

// TestFullTableActivationDoesNotAllocate is the trackers' allocation
// gate: on a full table every activation of a new row evicts, a hot row
// mitigates on every activation (its weight is the threshold), Mithril
// mitigates under every RFM — and none of it may allocate.
func TestFullTableActivationDoesNotAllocate(t *testing.T) {
	const entries, threshold = 448, 2 * clm.One
	for _, tr := range []tableTracker{
		NewGrapheneRaw(entries, threshold),
		NewMithrilRaw(entries, 80),
		&ABACuS{threshold: threshold, table: newSlotTable(entries)},
	} {
		row := int64(0)
		round := func() {
			tr.OnActivation(row, clm.One+clm.One/4)
			tr.OnActivation(-1, threshold)
			tr.OnRFM()
			row++
		}
		for i := 0; i < 2*entries; i++ { // fill the table and build its index
			round()
		}
		if n := testing.AllocsPerRun(1000, round); n != 0 {
			t.Errorf("%s: %v allocations per full-table round, want 0", tr.Name(), n)
		}
	}
}
