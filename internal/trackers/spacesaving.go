package trackers

import (
	"fmt"

	"impress/internal/clm"
	"impress/internal/errs"
)

// slotTable is the Space-Saving (Misra-Gries) counter table that
// Graphene, Mithril and ABACuS share: a fixed array of (row, count)
// slots and a row -> slot map. The trackers differ only in what an
// installed row's count starts from and when a count resets.
//
// The slot layout is observable — free slots fill lowest index first,
// and the minimum (or maximum) count breaks ties toward the lowest slot
// index — and snapshots record it, so a restore reproduces it exactly.
//
// Once the table has filled, the minimum and maximum queries go through
// tournament trees over the slots, O(log n) per count change instead of
// an O(n) scan per query. The trees are built lazily — the minimum on
// the first eviction, the maximum on Mithril's first RFM after it — and
// dropped by a reset (ResetWindow, RestoreState), so a table that never
// fills (the full-system simulator's common case) never allocates them;
// until then Mithril's RFM scans the slots.
type slotTable struct {
	rows  map[int64]int // row -> slot
	row   []int64
	count []clm.EACT // unused slots hold 0
	used  []bool
	free  int // no slot below free is unused

	min, max tourney

	mitigations uint64
	out         oneRow
}

// tourney is a winner tree over the slots: node[k] is the winning slot
// of subtree k, children 2k and 2k+1, with leaf i at node[size+i] and
// padding leaves (-1) past the last slot. A left subtree only holds
// lower slot indices than its sibling, so keeping the left winner on
// equal counts breaks ties toward the lowest index.
type tourney struct {
	node  []int32
	valid bool // node reflects the table; false until built and after a reset
}

func newSlotTable(entries int) slotTable {
	return slotTable{
		rows:  make(map[int64]int, entries),
		row:   make([]int64, entries),
		count: make([]clm.EACT, entries),
		used:  make([]bool, entries),
	}
}

// claim installs an untracked row in the lowest free slot or, with the
// table full, in place of the minimum-count slot, whose row it evicts.
// A free slot's count is 0; an evicted slot keeps the evicted count.
// The caller must set the slot's new count with set.
func (t *slotTable) claim(row int64) (slot int, evicted bool) {
	for t.free < len(t.used) && t.used[t.free] {
		t.free++
	}
	if t.free < len(t.used) {
		slot = t.free
		t.used[slot] = true
	} else {
		slot = int(t.root(&t.min, false))
		delete(t.rows, t.row[slot])
		evicted = true
	}
	t.row[slot] = row
	t.rows[row] = slot
	return slot, evicted
}

// set stores a slot's count and replays its matches in any built tree.
func (t *slotTable) set(slot int, c clm.EACT) {
	t.count[slot] = c
	if t.min.valid {
		t.replay(t.min.node, slot, false)
	}
	if t.max.valid {
		t.replay(t.max.node, slot, true)
	}
}

// maxSlot returns the slot with the highest count, the lowest index on
// ties. An unused slot holds count 0, so it only wins where every used
// count is 0 too; callers treat a zero maximum as nothing to mitigate.
func (t *slotTable) maxSlot() int {
	if t.min.valid {
		return int(t.root(&t.max, true))
	}
	best := 0
	for i, c := range t.count {
		if c > t.count[best] {
			best = i
		}
	}
	return best
}

// root returns tr's overall winner, building the tree first if needed.
// The minimum is only queried on a full table, so every competing slot
// is in use.
func (t *slotTable) root(tr *tourney, max bool) int32 {
	if !tr.valid {
		size := 1
		for size < len(t.row) {
			size <<= 1
		}
		if tr.node == nil {
			tr.node = make([]int32, 2*size)
		}
		for i := 0; i < size; i++ {
			tr.node[size+i] = -1
			if i < len(t.row) {
				tr.node[size+i] = int32(i)
			}
		}
		for k := size - 1; k >= 1; k-- {
			tr.node[k] = t.winner(tr.node[2*k], tr.node[2*k+1], max)
		}
		tr.valid = true
	}
	return tr.node[1]
}

// winner plays one match: a from the left subtree, b from the right.
func (t *slotTable) winner(a, b int32, max bool) int32 {
	if b < 0 {
		return a
	}
	if max {
		if t.count[b] > t.count[a] {
			return b
		}
	} else if t.count[b] < t.count[a] {
		return b
	}
	return a
}

// replay re-plays the matches on slot's path to the root after its
// count changed. Once a match keeps a winner other than slot, nothing
// above it can change.
func (t *slotTable) replay(node []int32, slot int, max bool) {
	s := int32(slot)
	for k := (len(node)/2 + slot) / 2; k >= 1; k /= 2 {
		old := node[k]
		w := t.winner(node[2*k], node[2*k+1], max)
		node[k] = w
		if w == old && w != s {
			return
		}
	}
}

// countOf returns row's tracked count, zero if untracked.
func (t *slotTable) countOf(row int64) clm.EACT {
	if slot, ok := t.rows[row]; ok {
		return t.count[slot]
	}
	return 0
}

// reset empties the table and drops the trees.
func (t *slotTable) reset() {
	clear(t.used)
	clear(t.count)
	clear(t.rows)
	t.free = 0
	t.min.valid = false
	t.max.valid = false
}

// state snapshots the table under the tracker's kind tag: the occupied
// slots in index order and the mitigation count.
func (t *slotTable) state(kind string) State {
	s := State{Kind: kind, Mitigations: t.mitigations}
	for i, u := range t.used {
		if u {
			s.Slots = append(s.Slots, SlotState{Slot: i, Row: t.row[i], Count: t.count[i]})
		}
	}
	return s
}

// restore resets the table and applies a snapshot of the given kind
// onto it; the trees rebuild from the restored slots on their next
// query.
func (t *slotTable) restore(kind string, st State) error {
	if st.Kind != kind {
		return restoreKindErr(kind, st.Kind)
	}
	t.reset()
	for _, s := range st.Slots {
		if s.Slot < 0 || s.Slot >= len(t.used) {
			return fmt.Errorf("trackers: %w: checkpoint slot %d out of range [0,%d)",
				errs.ErrBadSpec, s.Slot, len(t.used))
		}
		if t.used[s.Slot] {
			return fmt.Errorf("trackers: %w: checkpoint slot %d duplicated",
				errs.ErrBadSpec, s.Slot)
		}
		if _, dup := t.rows[s.Row]; dup {
			return fmt.Errorf("trackers: %w: checkpoint row %d duplicated",
				errs.ErrBadSpec, s.Row)
		}
		t.used[s.Slot] = true
		t.row[s.Slot] = s.Row
		t.count[s.Slot] = s.Count
		t.rows[s.Row] = s.Slot
	}
	t.mitigations = st.Mitigations
	return nil
}
