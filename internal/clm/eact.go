package clm

import (
	"fmt"

	"impress/internal/dram"
)

// EACT is an Equivalent Activation Count in fixed point. The integer value
// holds the activation count scaled by 2^FracBits; One (1 << FracBits)
// represents exactly one Rowhammer-equivalent activation.
//
// The paper's hardware implementation measures tON in 2.66 GHz DRAM cycles
// and divides by tRC (= 128 cycles) with a right shift by 7; with the
// default FracBits of 7 this package performs the identical arithmetic.
type EACT uint64

// FracBits is the default number of fractional EACT bits (Section VI-B).
const FracBits = EACTFracBitsExact

// One is the fixed-point representation of 1.0 activations at FracBits.
const One EACT = 1 << FracBits

// Float converts a fixed-point EACT at the default precision to float64.
func (e EACT) Float() float64 { return float64(e) / float64(One) }

// FloatAt converts a fixed-point EACT with b fractional bits to float64.
func (e EACT) FloatAt(b int) float64 { return float64(e) / float64(uint64(1)<<b) }

// Calculator converts measured row-open times into EACT values. It is the
// software model of the per-bank 10-bit timer plus shifter that ImPress-P
// adds to the DRAM chip or memory controller. It keeps only the three
// timings it reads, so the per-PRE call copies no full timing set.
type Calculator struct {
	tRAS, tPRE, tRC dram.Tick
	fracBits        int
}

// NewCalculator returns a Calculator at the default 7-bit precision.
func NewCalculator(t dram.Timings) Calculator {
	return NewCalculatorWithPrecision(t, FracBits)
}

// NewCalculatorWithPrecision returns a Calculator that truncates EACT to b
// fractional bits (0 <= b <= FracBits). b = 0 reproduces ImPress-N's
// integer behaviour when combined with flooring; smaller b trades storage
// for the threshold loss quantified by FracBitsEffectiveThreshold.
func NewCalculatorWithPrecision(t dram.Timings, b int) Calculator {
	if b < 0 || b > FracBits {
		panic(fmt.Sprintf("clm: fractional bits %d out of range [0,%d]", b, FracBits))
	}
	return Calculator{tRAS: t.TRAS, tPRE: t.TPRE, tRC: t.TRC, fracBits: b}
}

// FracBits returns the configured precision.
func (c Calculator) FracBits() int { return c.fracBits }

// FromTON converts a measured row-open time into an EACT at the default
// 7-bit precision (Fig. 11):
//
//	EACT = (tON + tPRE) / tRC, clamped to at least 1.0
//
// The result is exact at 7 fractional bits because tRC is 2^7 DRAM cycles.
// When the calculator was built with fewer fractional bits, the fractional
// part is truncated (floored) to that precision — truncation, not
// rounding, because hardware drops the low bits; the security impact of
// the floor is what Fig. 12 quantifies.
func (c Calculator) FromTON(tON dram.Tick) EACT {
	if tON < c.tRAS {
		// A legal access always spans at least tRAS; clamping also makes
		// the function total for attack-analysis callers that probe
		// shorter values.
		tON = c.tRAS
	}
	total := uint64(tON + c.tPRE)
	// Fixed point at full precision first: (total << FracBits) / tRC.
	full := EACT((total << FracBits) / uint64(c.tRC))
	if full < One {
		full = One
	}
	if c.fracBits < FracBits {
		drop := uint(FracBits - c.fracBits)
		full = (full >> drop) << drop
		if full < One {
			// Even after truncation an access is never worth less than a
			// full activation (EACT is guaranteed to be at least 1).
			full = One
		}
	}
	return full
}

// MaxTimerTON returns the largest row-open time representable by the
// paper's 10-bit per-bank timer counting in tRC units. Beyond this, a
// compliant device has long since been forced to close the row (tONMax),
// so the timer never saturates in practice; the attack analysis uses this
// bound to verify that claim.
func (c Calculator) MaxTimerTON() dram.Tick {
	const timerBits = 10
	return dram.Tick((1<<timerBits)-1) * c.tRC
}
