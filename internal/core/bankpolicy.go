package core

import (
	"impress/internal/clm"
	"impress/internal/dram"
)

// Event is one weighted activation that a defense policy feeds into the
// Rowhammer tracker. Weight is fixed point (clm.One = one plain ACT).
type Event struct {
	Row    int64
	Weight clm.EACT
}

// BankPolicy converts one bank's DRAM activity into weighted tracker
// events. Implementations are single-bank, single-goroutine state
// machines; the caller must deliver OnActivate/OnPrecharge in time order
// and may call Advance at any time to flush time-driven events (ImPress-N
// window boundaries).
//
// The event slices OnActivate, OnPrecharge and Advance return are backed
// by a buffer the policy owns: a slice is valid only until the next call
// on the same policy, so the caller feeds it to the tracker (or copies
// it) first. No event means a nil slice. This keeps the per-ACT path
// allocation-free.
type BankPolicy interface {
	// OnActivate is invoked when an ACT opens row at time now. The
	// returned events must be fed to the tracker immediately.
	OnActivate(now dram.Tick, row int64) []Event
	// OnPrecharge is invoked when the bank's open row closes at time now
	// after being open for tON.
	OnPrecharge(now dram.Tick, row int64, tON dram.Tick) []Event
	// Advance flushes events for all policy-internal deadlines up to and
	// including now (a no-op for every design except ImPress-N).
	Advance(now dram.Tick) []Event
	// NextEvent returns the earliest tick at which Advance could emit or
	// change policy state (the next ImPress-N window boundary), or
	// dram.TickMax for policies with no time-driven behavior. The
	// event-driven clock must not skip past this horizon while the bank's
	// row is open.
	NextEvent() dram.Tick
	// Snapshot captures the policy's mutable state for a warmup
	// checkpoint; Restore overwrites it. Stateless policies return the
	// zero PolicyState and ignore Restore.
	Snapshot() PolicyState
	Restore(PolicyState)
}

// PolicyState is a serializable snapshot of a bank policy's mutable
// state. Only ImPress-N carries any: the window timer and the ORA/open
// registers of Fig. 9. The tRC window length itself is configuration,
// not state, and is rebuilt from the design.
type PolicyState struct {
	NextBoundary dram.Tick `json:"nextBoundary,omitempty"`
	ORA          int64     `json:"ora,omitempty"`
	ORAValid     bool      `json:"oraValid,omitempty"`
	OpenRow      int64     `json:"openRow,omitempty"`
	OpenValid    bool      `json:"openValid,omitempty"`
	OpenAt       dram.Tick `json:"openAt,omitempty"`
}

// NewBankPolicy creates the per-bank state machine for d.
func NewBankPolicy(d Design) BankPolicy {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	switch d.Kind {
	case NoRP, ExPress:
		// Both feed exactly one unit per ACT; ExPress's tMRO enforcement
		// happens in the memory controller (Design.RowOpenLimit), not
		// here, and its threshold retuning in Design.TrackerTRH.
		return &perActPolicy{}
	case ImpressN:
		return newImpressNPolicy(d.Timings)
	case ImpressP:
		return &impressPPolicy{calc: clm.NewCalculatorWithPrecision(d.Timings, d.FracBits)}
	default:
		panic("core: unknown design kind")
	}
}

// perActPolicy implements the classic Rowhammer feed: weight One at ACT.
type perActPolicy struct {
	out [1]Event
}

//impress:hotpath
func (p *perActPolicy) OnActivate(_ dram.Tick, row int64) []Event {
	p.out[0] = Event{Row: row, Weight: clm.One}
	return p.out[:]
}

func (p *perActPolicy) OnPrecharge(dram.Tick, int64, dram.Tick) []Event { return nil }

func (p *perActPolicy) Advance(dram.Tick) []Event { return nil }

func (p *perActPolicy) NextEvent() dram.Tick { return dram.TickMax }

func (p *perActPolicy) Snapshot() PolicyState { return PolicyState{} }

func (p *perActPolicy) Restore(PolicyState) {}

// impressPPolicy implements ImPress-P: nothing at ACT; the full access is
// charged at PRE, weighted by EACT = (tON + tPRE)/tRC at the configured
// precision (Fig. 11).
type impressPPolicy struct {
	calc clm.Calculator
	out  [1]Event
}

func (p *impressPPolicy) OnActivate(dram.Tick, int64) []Event { return nil }

//impress:hotpath
func (p *impressPPolicy) OnPrecharge(_ dram.Tick, row int64, tON dram.Tick) []Event {
	p.out[0] = Event{Row: row, Weight: p.calc.FromTON(tON)}
	return p.out[:]
}

func (p *impressPPolicy) Advance(dram.Tick) []Event { return nil }

func (p *impressPPolicy) NextEvent() dram.Tick { return dram.TickMax }

func (p *impressPPolicy) Snapshot() PolicyState { return PolicyState{} }

func (p *impressPPolicy) Restore(PolicyState) {}

// impressNPolicy implements ImPress-N's Timer + ORA register pair
// (Fig. 9): time is divided into global windows of tRC; at each window
// boundary the open row's address is latched into ORA, and if it matches
// the previous window's ORA the row was open for the entire window and is
// charged one activation.
//
// The policy additionally charges one unit per real ACT, like the
// baseline. Total per-bank hardware state is the paper's 4 bytes: a 1-byte
// timer (window phase) and a 3-byte ORA.
type impressNPolicy struct {
	t dram.Timings

	nextBoundary dram.Tick
	ora          int64
	oraValid     bool

	openRow   int64
	openValid bool
	openAt    dram.Tick // when the row finished activating (ACT time + tACT)

	out []Event // backs the returned event slices
}

func newImpressNPolicy(t dram.Timings) *impressNPolicy {
	return &impressNPolicy{t: t, nextBoundary: t.TRC}
}

// flush processes all window boundaries up to and including now, using the
// bank state that has been in effect since the last state change (callers
// invoke it before applying a state change, so the attribution is exact).
//
// A synthetic activation is emitted only when the row was open for the
// entire window: it was latched into ORA at the previous boundary AND has
// been continuously open since before that boundary (openAt <= b - tRC).
// A row counts as open at a boundary only once its activation has
// completed (ACT time + tACT): this is what the Fig. 10 decoy pattern
// exploits — an ACT issued just before the boundary is "still not yet
// opened" and evades the ORA latch.
//
// flush restarts the policy's event buffer; callers append to it.
func (p *impressNPolicy) flush(now dram.Tick) {
	p.out = p.out[:0]
	for p.nextBoundary <= now {
		b := p.nextBoundary
		if p.openValid && p.openAt <= b {
			if p.oraValid && p.ora == p.openRow && p.openAt <= b-p.t.TRC {
				p.out = append(p.out, Event{Row: p.openRow, Weight: clm.One})
			}
			p.ora = p.openRow
			p.oraValid = true
		} else {
			p.oraValid = false
		}
		p.nextBoundary += p.t.TRC
	}
}

// events returns the buffered events, nil when there are none.
func (p *impressNPolicy) events() []Event {
	if len(p.out) == 0 {
		return nil
	}
	return p.out
}

//impress:hotpath
func (p *impressNPolicy) OnActivate(now dram.Tick, row int64) []Event {
	p.flush(now)
	p.openRow = row
	p.openValid = true
	p.openAt = now + p.t.TACT
	p.out = append(p.out, Event{Row: row, Weight: clm.One})
	return p.out
}

//impress:hotpath
func (p *impressNPolicy) OnPrecharge(now dram.Tick, _ int64, _ dram.Tick) []Event {
	p.flush(now)
	p.openValid = false
	return p.events()
}

//impress:hotpath
func (p *impressNPolicy) Advance(now dram.Tick) []Event {
	p.flush(now)
	return p.events()
}

func (p *impressNPolicy) NextEvent() dram.Tick { return p.nextBoundary }

func (p *impressNPolicy) Snapshot() PolicyState {
	return PolicyState{
		NextBoundary: p.nextBoundary,
		ORA:          p.ora,
		ORAValid:     p.oraValid,
		OpenRow:      p.openRow,
		OpenValid:    p.openValid,
		OpenAt:       p.openAt,
	}
}

func (p *impressNPolicy) Restore(s PolicyState) {
	p.nextBoundary = s.NextBoundary
	p.ora = s.ORA
	p.oraValid = s.ORAValid
	p.openRow = s.OpenRow
	p.openValid = s.OpenValid
	p.openAt = s.OpenAt
}
