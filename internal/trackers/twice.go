package trackers

import (
	"fmt"

	"impress/internal/clm"
)

// TWiCe is the time-window counter tracker of Lee et al. (ISCA'19), one of
// the "efficient trackers to identify aggressor rows" Section VII lists as
// compatible with ImPress. It keeps an exact per-row counter table but
// bounds its size by *pruning*: at every pruning interval (tREFI), any
// entry whose count is too low to possibly reach the threshold by the end
// of the refresh window — given the maximum activation rate — is dropped.
// A row activated often enough to be dangerous can never be pruned.
//
// As with the other counter trackers, ImPress-P support is obtained by
// accumulating fixed-point clm.EACT weights instead of unit increments.
type TWiCe struct {
	threshold clm.EACT // mitigation threshold (fixed point)
	pruneStep clm.EACT // minimum count growth per interval to survive

	entries map[int64]*twiceEntry

	intervals   uint64
	mitigations uint64
	pruned      uint64
	out         oneRow
}

type twiceEntry struct {
	count clm.EACT
	// born is the interval index at which the row entered the table.
	born uint64
}

// TWiCeInternalDivisor converts TRH to the mitigation threshold; TWiCe
// uses the same guard band as the other counter trackers here.
const TWiCeInternalDivisor = 4

// NewTWiCe builds a TWiCe instance tolerating trh, pruning every tREFI.
// windowsPerRefresh is the number of pruning intervals per refresh window
// (tREFW/tREFI, 8205 for the paper's DDR5 parameters).
func NewTWiCe(trh float64, windowsPerRefresh int64) *TWiCe {
	if trh <= 0 || windowsPerRefresh <= 0 {
		panic("trackers: invalid TWiCe parameters")
	}
	threshold := clm.EACT(trh / TWiCeInternalDivisor * float64(clm.One))
	if threshold == 0 {
		panic("trackers: TWiCe threshold underflow")
	}
	pruneStep := threshold / clm.EACT(windowsPerRefresh)
	if pruneStep == 0 {
		pruneStep = 1
	}
	return &TWiCe{
		threshold: threshold,
		pruneStep: pruneStep,
		entries:   make(map[int64]*twiceEntry),
	}
}

// Name implements Tracker.
func (w *TWiCe) Name() string { return "twice" }

// InDRAM implements Tracker: TWiCe sits beside the memory controller /
// RCD.
func (w *TWiCe) InDRAM() bool { return false }

// Mitigations returns the mitigation count.
func (w *TWiCe) Mitigations() uint64 { return w.mitigations }

// Pruned returns how many entries pruning has dropped.
func (w *TWiCe) Pruned() uint64 { return w.pruned }

// TableSize returns the current entry count.
func (w *TWiCe) TableSize() int { return len(w.entries) }

// OnActivation implements Tracker.
//
//impress:hotpath
func (w *TWiCe) OnActivation(row int64, weight clm.EACT) []int64 {
	mustWeigh(weight)
	e, ok := w.entries[row]
	if !ok {
		e = &twiceEntry{born: w.intervals}
		w.entries[row] = e
	}
	e.count += weight
	if e.count >= w.threshold {
		e.count = 0
		e.born = w.intervals
		w.mitigations++
		return w.out.of(row)
	}
	return nil
}

// OnPruneInterval advances TWiCe's pruning clock (call once per tREFI):
// entries whose count lags the minimum dangerous growth rate are dropped.
// A row that could still reach the threshold by the end of the refresh
// window is never dropped, preserving the security guarantee.
func (w *TWiCe) OnPruneInterval() {
	w.intervals++
	for row, e := range w.entries {
		age := w.intervals - e.born
		need := clm.EACT(age) * w.pruneStep
		if e.count < need {
			delete(w.entries, row)
			w.pruned++
		}
	}
}

// OnRFM implements Tracker (MC-side: no RFM mitigation; the pruning clock
// is driven by OnPruneInterval from the refresh schedule).
func (w *TWiCe) OnRFM() []int64 { return nil }

// ResetWindow implements Tracker.
func (w *TWiCe) ResetWindow() {
	w.entries = make(map[int64]*twiceEntry)
	w.intervals = 0
}

// String implements fmt.Stringer.
func (w *TWiCe) String() string {
	return fmt.Sprintf("twice(threshold=%.0f, entries=%d)", w.threshold.Float(), len(w.entries))
}
