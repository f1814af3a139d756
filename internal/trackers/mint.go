package trackers

import (
	"fmt"

	"impress/internal/clm"
	"impress/internal/stats"
)

// MINT is the minimalist in-DRAM probabilistic tracker of Qureshi et al.
// (MICRO'24): a single entry per bank. It keeps three registers:
//
//   - SAN (Selected Activation Number): which activation slot in the
//     current RFM interval has been randomly selected for mitigation;
//   - CAN (Current Activation Number): how many activations (weighted by
//     EACT under ImPress-P) have occurred in the current interval;
//   - SAR (Selected Address Register): the row that landed on the selected
//     slot.
//
// At each RFM, the row in SAR (if any) is mitigated, CAN resets, and a
// fresh SAN is drawn uniformly over the upcoming RFMTH activation slots.
//
// Under ImPress-P, CAN gains clm.FracBits fractional bits and each
// activation advances it by its EACT; a row's chance of covering the
// selected slot is therefore proportional to its EACT, exactly as Section
// VI-C describes ("each activation gets a selection probability in
// proportion to the EACT").
type MINT struct {
	rfmth int
	rng   *stats.Rand

	san      clm.EACT // selected slot, fixed point, in (0, rfmth]
	can      clm.EACT // accumulated weighted activations this interval
	sar      int64
	sarValid bool

	mitigations uint64
	out         oneRow
}

// MINTBaseTolerated is the tolerated Rowhammer threshold per unit of
// RFMTH for MINT at the paper's 0.1 FIT target: RFMTH = 80 tolerates
// TRH = 1.6K (Section III-B), so the constant is 20.
const MINTBaseTolerated = 20.0

// MINTToleratedTRH returns the Rowhammer threshold MINT tolerates at the
// given RFM threshold (the paper's figure of merit for MINT, which has no
// other configurability).
func MINTToleratedTRH(rfmth int) float64 {
	return MINTBaseTolerated * float64(rfmth)
}

// MINTToleratedTRHImpressN returns the threshold MINT tolerates when
// ImPress-N leaves sub-tRC Row-Press unmitigated: the decoy pattern
// inflates per-round damage by (1+alpha), so the tolerated threshold
// scales by the same factor (1.6K -> 3.1K at alpha = 1, 2.1K at 0.35,
// Section VI-C / Appendix A).
func MINTToleratedTRHImpressN(rfmth int, alpha float64) float64 {
	return MINTToleratedTRH(rfmth) * (1 + alpha)
}

// NewMINT builds a per-bank MINT instance with the given RFM threshold,
// drawing slot selections from rng.
func NewMINT(rfmth int, rng *stats.Rand) *MINT {
	if rfmth <= 0 {
		panic("trackers: MINT needs positive RFMTH")
	}
	m := &MINT{rfmth: rfmth, rng: rng}
	m.drawSAN()
	return m
}

func (m *MINT) drawSAN() {
	// Uniform over the integer slots 1..RFMTH, held in fixed point. SAN
	// itself stays integer-granular (the paper leaves SAN unchanged under
	// ImPress-P; only CAN gains fractional bits): an activation is
	// selected when its CAN interval covers the slot boundary, which
	// weights selection by EACT.
	slot := 1 + m.rng.Uint64n(uint64(m.rfmth))
	m.san = clm.EACT(slot << clm.FracBits)
}

// Name implements Tracker.
func (m *MINT) Name() string { return "mint" }

// InDRAM implements Tracker.
func (m *MINT) InDRAM() bool { return true }

// RFMTH returns the configured RFM threshold.
func (m *MINT) RFMTH() int { return m.rfmth }

// Mitigations returns the number of mitigations performed under RFM.
func (m *MINT) Mitigations() uint64 { return m.mitigations }

// OnActivation implements Tracker: advance CAN by the activation's weight
// and capture the row if it crosses the selected slot.
//
//impress:hotpath
func (m *MINT) OnActivation(row int64, weight clm.EACT) []int64 {
	mustWeigh(weight)
	prev := m.can
	m.can += weight
	if prev < m.san && m.san <= m.can {
		m.sar = row
		m.sarValid = true
	}
	return nil
}

// OnRFM implements Tracker: mitigate the captured row (if any), then reset
// the interval.
//
//impress:hotpath
func (m *MINT) OnRFM() []int64 {
	var out []int64
	if m.sarValid {
		out = m.out.of(m.sar)
		m.mitigations++
	}
	m.sarValid = false
	m.can = 0
	m.drawSAN()
	return out
}

// ResetWindow implements Tracker.
func (m *MINT) ResetWindow() {
	m.sarValid = false
	m.can = 0
	m.drawSAN()
}

// String implements fmt.Stringer.
func (m *MINT) String() string { return fmt.Sprintf("mint(rfmth=%d)", m.rfmth) }
