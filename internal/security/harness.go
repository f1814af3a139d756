// Package security measures the effectiveness of Row-Press defenses
// against adversarial patterns. It replays attack patterns from
// internal/attack against a (defense, tracker) pair on a single-bank
// model, accumulating per-victim damage with the unified charge-loss model
// at an attacker-chosen "true" device alpha, and reports the maximum
// damage any row accumulates before its victims are refreshed — the
// empirical effective threshold the design tolerates.
//
// The package also contains the analytic attack-slowdown models of
// Appendix B (Figures 18 and 19) and the storage-overhead calculator of
// Section VI-C.
package security

import (
	"context"
	"fmt"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/errs"
	"impress/internal/trackers"
)

// TrackerFactory builds a per-bank tracker configured for the given
// tolerated threshold (already reduced to T* by the defense design where
// applicable).
type TrackerFactory func(trackerTRH float64) trackers.Tracker

// Config describes one security experiment.
type Config struct {
	// Design is the Row-Press defense under test.
	Design core.Design
	// DesignTRH is the DRAM device's true Rowhammer threshold the system
	// is provisioned for.
	DesignTRH float64
	// AlphaTrue is the device's actual Row-Press leakage rate used for
	// damage accounting (the attacker gets the benefit of the real
	// device, not the designer's model).
	AlphaTrue float64
	// RFMTH is the controller's RFM cadence in activations per bank
	// (used only when the tracker is in-DRAM). Zero disables RFM.
	RFMTH int
	// Duration bounds the attack; zero means one refresh window (tREFW),
	// the natural horizon since all victims refresh once per window.
	Duration dram.Tick
	// Tracker builds the tracker under test.
	Tracker TrackerFactory
	// RFMPaceOnRawACTs is an ABLATION switch: pace RFM on raw activation
	// counts (the plain DDR5 RAA counter) instead of the weighted EACT
	// stream. With ImPress and an in-DRAM tracker this re-opens the
	// Row-Press hole — an attacker doing long holds generates few ACTs
	// and starves the tracker of mitigation windows — which is why the
	// design paces RFM on EACT (see the RFMPacing ablation test).
	RFMPaceOnRawACTs bool
}

// Result summarizes one harness run.
type Result struct {
	Pattern   string
	MaxDamage float64 // peak damage (in TRH units) any row ever reached

	DemandACTs     uint64
	MitigativeACTs uint64
	Mitigations    uint64
	RFMs           uint64
	Refreshes      uint64

	Elapsed        dram.Tick // total wall-clock time simulated
	MitigationTime dram.Tick // time spent on mitigation work (MC-side)
}

// Slowdown returns the fraction of time lost to mitigation work (the
// Appendix-B metric: t_mitigation / t_N).
func (r Result) Slowdown() float64 {
	base := r.Elapsed - r.MitigationTime
	if base <= 0 {
		return 0
	}
	return float64(r.MitigationTime) / float64(base)
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s: maxDamage=%.1f acts=%d mitigations=%d slowdown=%.2f%%",
		r.Pattern, r.MaxDamage, r.DemandACTs, r.Mitigations, 100*r.Slowdown())
}

// Validate reports whether the config is a well-formed security
// experiment, returning a typed error (wrapping errs.ErrBadSpec)
// otherwise: an invalid defense design or a missing tracker factory.
func (cfg Config) Validate() error {
	if err := cfg.Design.Validate(); err != nil {
		return fmt.Errorf("security: %w: %w", errs.ErrBadSpec, err)
	}
	if cfg.Tracker == nil {
		return fmt.Errorf("security: %w: missing tracker factory", errs.ErrBadSpec)
	}
	return nil
}

// RunContext replays pattern against cfg and returns the measured
// result. Invalid caller input returns a typed error wrapping
// errs.ErrBadSpec (see Config.Validate). Cancellation is honored at
// access boundaries — the context is polled every few hundred attack
// accesses, a sub-millisecond granularity — returning an error matching
// both errs.ErrCancelled and ctx.Err(); an uncancellable context costs
// one nil-check per access.
//
// Model simplifications (documented in DESIGN.md §5): regular tREFI
// refreshes are served whenever the bank is idle and consume tRFC each
// (refresh postponement is implicit — row-open time is already bounded by
// the design's row-open limit, which never exceeds the DDR5 tONMax of
// 5 tREFI); the per-window victim refresh is modeled as a full damage
// reset at each tREFW boundary. Mitigations requested while the aggressor
// row is open are applied when it closes, since victim rows share the
// bank and cannot be activated while another row is open.
func RunContext(ctx context.Context, cfg Config, pattern attack.Pattern) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	t := cfg.Design.Timings
	duration := cfg.Duration
	if duration == 0 {
		duration = t.TREFW
	}
	tr := cfg.Tracker(cfg.Design.TrackerTRH(cfg.DesignTRH))
	h := &harness{
		t:         t,
		policy:    core.NewBankPolicy(cfg.Design),
		tr:        tr,
		model:     clm.Model{Alpha: cfg.AlphaTrue, Timings: t},
		openLimit: cfg.Design.RowOpenLimit(),
		rawRFM:    cfg.RFMPaceOnRawACTs,
		rfm:       tr.InDRAM() && cfg.RFMTH > 0,
		rfmDue:    clm.EACT(cfg.RFMTH) * clm.One,
		res:       Result{Pattern: pattern.Name()},
		damage:    damagePages{index: make(map[int64]*damagePage)},
	}
	return h.run(ctx, pattern, duration)
}

// harness is one run's single-bank state.
type harness struct {
	t         dram.Timings
	policy    core.BankPolicy
	tr        trackers.Tracker
	model     clm.Model
	openLimit dram.Tick
	rawRFM    bool     // Config.RFMPaceOnRawACTs
	rfm       bool     // an in-DRAM tracker with an RFM cadence
	rfmDue    clm.EACT // weighted activations between RFMs

	res    Result
	damage damagePages
	// RFM pacing operates on the same weighted activation stream the
	// tracker sees: under No-RP and ExPress every ACT contributes exactly
	// One, reproducing the plain DDR5 RAA counter; under ImPress the
	// Row-Press-equivalent activity also advances the counter, so a
	// pressing attacker cannot starve an in-DRAM tracker of mitigation
	// opportunities.
	eactSinceRFM clm.EACT
	pending      []int64 // aggressor rows awaiting victim refresh
}

// run is the access loop: it replays pattern until duration and returns
// the measured result.
//
//impress:hotpath
func (h *harness) run(ctx context.Context, pattern attack.Pattern, duration dram.Tick) (Result, error) {
	t := h.t
	model := h.model // a local receiver: AccessTCL copies no struct per access
	done := ctx.Done()
	now := dram.Tick(0)
	served := int64(0)
	windowEnd := t.TREFW
	for accesses := 0; now < duration; accesses++ {
		if done != nil && accesses&0xff == 0 {
			select {
			case <-done:
				return Result{}, cancelled(ctx, pattern, now)
			default:
			}
		}
		// Serve any refreshes that have come due while the bank is idle.
		if due := int64(now/t.TREFI) - served; due > 0 {
			now += dram.Tick(due) * t.TRFC
			served += due
			h.res.Refreshes += uint64(due)
		}
		// Refresh-window boundary: every victim has been refreshed.
		if now >= windowEnd {
			h.damage.reset()
			h.tr.ResetWindow()
			windowEnd += t.TREFW
		}

		acc := pattern.Next(now)
		actAt := acc.ActAt
		if actAt < now {
			actAt = now
		}
		tON := acc.TON
		if tON < t.TRAS {
			tON = t.TRAS
		}
		if tON > h.openLimit {
			// ExPress's tMRO (or the DDR5 tONMax) forces the row closed.
			tON = h.openLimit
		}

		h.feed(h.policy.OnActivate(actAt, acc.Row))
		h.res.DemandACTs++

		closeAt := actAt + tON
		h.accrue(acc.Row, model.AccessTCL(tON))
		h.feed(h.policy.OnPrecharge(closeAt, acc.Row, tON))
		now = closeAt + t.TPRE

		// Apply memory-controller mitigations queued during this access.
		for _, aggressor := range h.pending {
			h.refreshVictims(aggressor)
			h.res.Mitigations++
			h.res.MitigativeACTs += trackers.ActsPerMitigation
			cost := dram.Tick(trackers.ActsPerMitigation) * t.TRC
			now += cost
			h.res.MitigationTime += cost
		}
		h.pending = h.pending[:0]

		// RFM cadence for in-DRAM trackers: due every RFMTH units of
		// weighted activation.
		if h.rfm && h.eactSinceRFM >= h.rfmDue {
			h.eactSinceRFM = 0
			now += t.TRFM
			h.res.RFMs++
			for _, aggressor := range h.tr.OnRFM() {
				h.refreshVictims(aggressor)
				h.res.Mitigations++
			}
		}
	}
	h.res.Elapsed = now
	return h.res, nil
}

// cancelled builds the error for a run stopped at tick now.
//
//impress:coldpath
func cancelled(ctx context.Context, pattern attack.Pattern, now dram.Tick) error {
	return fmt.Errorf("security: %s stopped at tick %d: %w",
		pattern.Name(), now, errs.Cancelled(ctx.Err()))
}

// feed hands policy events to the tracker, queueing its mitigations.
func (h *harness) feed(events []core.Event) {
	for _, ev := range events {
		if h.rawRFM {
			h.eactSinceRFM += clm.One
		} else {
			h.eactSinceRFM += ev.Weight
		}
		h.pending = append(h.pending, h.tr.OnActivation(ev.Row, ev.Weight)...)
	}
}

// refreshVictims clears the damage of an aggressor's victims.
func (h *harness) refreshVictims(aggressor int64) {
	for _, v := range trackers.VictimsOf(aggressor) {
		*h.damage.at(v) = 0
	}
}

// accrue charges one access of row, inflicting damage d, to its victims.
func (h *harness) accrue(row int64, d float64) {
	peak := h.res.MaxDamage
	for _, v := range trackers.VictimsOf(row) {
		p := h.damage.at(v)
		*p += d
		if *p > peak {
			peak = *p
		}
	}
	h.res.MaxDamage = peak
}

// damagePageBits sizes a damage page: 64 adjacent rows, so an
// aggressor's victims almost always share one page.
const damagePageBits = 6

// damagePage holds the accumulated damage of 1<<damagePageBits adjacent
// rows, in TRH units.
type damagePage [1 << damagePageBits]float64

// damageCacheSize is the number of direct-mapped page-cache lines: it
// covers an aggressor's page plus a rotating decoy sweep's recent pages.
const damageCacheSize = 64

// damagePages is the per-row damage store: pages of adjacent rows,
// allocated on first touch, found through a direct-mapped cache in
// front of the page map.
type damagePages struct {
	index map[int64]*damagePage // row >> damagePageBits -> page
	pages []*damagePage         // every page, for the window reset
	cache [damageCacheSize]struct {
		key  int64
		page *damagePage
	}
}

// at returns row's damage cell.
func (d *damagePages) at(row int64) *float64 {
	key := row >> damagePageBits
	line := &d.cache[key&(damageCacheSize-1)]
	if line.page == nil || line.key != key {
		p, ok := d.index[key]
		if !ok {
			p = new(damagePage)
			d.index[key] = p
			d.pages = append(d.pages, p)
		}
		line.key, line.page = key, p
	}
	return &line.page[row&(1<<damagePageBits-1)]
}

// reset zeroes every row's damage.
func (d *damagePages) reset() {
	for _, p := range d.pages {
		*p = damagePage{}
	}
}
