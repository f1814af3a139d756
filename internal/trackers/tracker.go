// Package trackers implements the four Rowhammer aggressor-row trackers the
// paper analyzes (Section II-C / III-B):
//
//   - Graphene: counter-based, memory-controller side (Misra-Gries).
//   - PARA: probabilistic, memory-controller side.
//   - Mithril: counter-based, in-DRAM, mitigating under RFM.
//   - MINT: probabilistic, in-DRAM, single entry per bank.
//
// All trackers operate on fixed-point activation weights (clm.EACT) so that
// the same implementation serves the No-RP baseline (every ACT weighs
// exactly clm.One), ExPress and ImPress-N (retuned thresholds, integer
// weights) and ImPress-P (fractional weights). This is precisely the
// modification the paper describes: "a counter-based tracker would
// increment the counter by EACT instead of 1; a probabilistic solution
// would select the row with probability p x EACT".
package trackers

import "impress/internal/clm"

// Tracker is the common interface of all aggressor-row trackers. One
// Tracker instance guards one DRAM bank.
type Tracker interface {
	// Name returns the tracker's short name ("graphene", "para", ...).
	Name() string

	// InDRAM reports whether the tracker lives inside the DRAM chip (its
	// mitigations happen under RFM) rather than in the memory controller
	// (its mitigations are explicit victim refreshes on the bus).
	InDRAM() bool

	// OnActivation records an activation of row with the given fixed-point
	// weight (clm.One for a plain ACT). For memory-controller trackers it
	// returns the aggressor rows whose victims must be refreshed now; for
	// in-DRAM trackers it always returns nil (they mitigate at RFM).
	//
	// The returned slice is backed by a buffer the tracker owns: it is
	// valid only until the next call on the same tracker, so callers
	// consume (or copy) it first. This keeps the per-activation path
	// allocation-free.
	OnActivation(row int64, weight clm.EACT) []int64

	// OnRFM is invoked when an RFM command reaches the bank. In-DRAM
	// trackers return the aggressor rows they mitigate under this RFM;
	// memory-controller trackers ignore it. The result has the same
	// lifetime as OnActivation's.
	OnRFM() []int64

	// ResetWindow is invoked once per refresh window (tREFW): victims have
	// all been refreshed by the regular refresh sweep, so accumulated
	// state is cleared.
	ResetWindow()
}

// oneRow backs the single-row slices trackers return (see Tracker).
type oneRow [1]int64

func (o *oneRow) of(row int64) []int64 {
	o[0] = row
	return o[:]
}

// mustWeigh rejects a zero-weight activation, which no policy emits.
func mustWeigh(weight clm.EACT) {
	if weight == 0 {
		panic("trackers: zero-weight activation")
	}
}

// BlastRadius is the number of rows on each side of an aggressor that must
// be refreshed by a mitigation (the paper's Appendix B uses 2, i.e. 4
// victim rows and 4 mitigative activations per mitigation).
const BlastRadius = 2

// VictimsOf returns the victim rows of an aggressor: BlastRadius rows on
// each side, nearest first.
func VictimsOf(aggressor int64) [2 * BlastRadius]int64 {
	var victims [2 * BlastRadius]int64
	for d := int64(1); d <= BlastRadius; d++ {
		victims[2*d-2], victims[2*d-1] = aggressor-d, aggressor+d
	}
	return victims
}

// ActsPerMitigation is the bus cost of one memory-controller-side
// mitigation: one ACT per victim row (4 activations, per Appendix B).
const ActsPerMitigation = 2 * BlastRadius

// RowAddressBits is the per-bank row address width assumed by the storage
// model: the paper's 32 GB channels with 64 banks and 8 KB rows leave
// 64 Ki rows per bank; we provision one spare bit as real designs do.
const RowAddressBits = 17
