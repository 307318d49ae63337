package atpg

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// Status reports the outcome of deterministic test generation for one
// fault.
type Status int

// PODEM outcomes.
const (
	// Detected: a test was generated.
	Detected Status = iota
	// Untestable: the search space was exhausted; the fault is
	// redundant (no test exists).
	Untestable
	// Aborted: the backtrack limit was hit before a conclusion.
	Aborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Podem is a deterministic single-stuck-at test generator implementing
// the PODEM algorithm (Goel, 1981): branch-and-bound over primary-input
// assignments with a pair (good, faulty) of three-valued machines for
// implication.
//
// Implication is event-driven on the flat core. Both machines share
// one slot-indexed plane of logicsim.TritPair values, evaluated
// together; a decision or a backtrack changes a few primary inputs,
// and only the slots those changes reach are re-evaluated, in
// ascending slot order (slot order is topological, so a bitset sweep
// is the event queue). The faulty machine differs from the good one
// only inside the fault site's fanout cone, so the D-frontier and
// fault-effect searches scan the cone alone. The plane is a pure
// function of the input assignment, so every decision — and hence
// every pattern and status — is the one full re-simulation per step
// would make; the atpg tests pin this against such a reference.
//
// A Podem is reusable across faults (state is reset per Generate) but
// not safe for concurrent use.
type Podem struct {
	c    *netlist.Circuit
	flat *logicsim.Flat
	// BacktrackLimit bounds the search; 0 means the default (10000).
	BacktrackLimit int

	// Static per-slot tables.
	foAt, fo []int32             // slot-space fanout (see Flat.Fanout)
	want     []logicsim.Trit     // value an X input of a frontier gate is driven to
	inv      []bool              // the gate inverts its combined input
	isPO     []bool              // the slot drives a primary output
	allX     []logicsim.TritPair // plane with every primary input at X

	// Implication state: the two-machine plane and the input
	// assignment (primary input i is slot i). dirty lists the inputs
	// assigned since the last imply; pending is the event bitset over
	// slots.
	val     []logicsim.TritPair
	pi      []logicsim.Trit
	dirty   []int32
	pending []uint64

	// The target fault: its site slot, pin (-1 for the stem), stuck
	// value and site gate type; line is the slot whose good value
	// activates it; cone is the site's fanout cone (ascending) and
	// coneOuts its primary outputs.
	site     int32
	pin      int
	stuck    logicsim.Trit
	siteType netlist.GateType
	line     int32
	cone     []int32
	coneOuts []int32

	// Search scratch: the D-frontier of the last scan, the frontier
	// gate the objective advances (-1: none), the x-path visit marks
	// and stack (seen also marks the cone while it is collected), the
	// decision stack, and the site's faulty-fanin staging.
	frontier  []int32
	objGate   int32
	seen      []uint32
	seenEpoch uint32
	stack     []int32
	decisions []decision
	in        []logicsim.Trit
}

// NewPodem prepares a generator for the circuit.
func NewPodem(c *netlist.Circuit) (*Podem, error) {
	flat, err := logicsim.FlatFor(c)
	if err != nil {
		return nil, err
	}
	n := flat.Slots()
	foAt, fo := flat.Fanout()
	p := &Podem{
		c:       c,
		flat:    flat,
		foAt:    foAt,
		fo:      fo,
		want:    make([]logicsim.Trit, n),
		inv:     make([]bool, n),
		isPO:    make([]bool, n),
		allX:    make([]logicsim.TritPair, n),
		val:     make([]logicsim.TritPair, n),
		pi:      make([]logicsim.Trit, flat.NumInputs()),
		pending: make([]uint64, (n+63)/64),
		seen:    make([]uint32, n),
	}
	for slot := 0; slot < n; slot++ {
		t := c.Gates[flat.GateAt(slot)].Type
		p.inv[slot] = inverts(t)
		p.want[slot] = logicsim.T
		if ctrl, has := controlling(t); has {
			p.want[slot] = logicsim.NotT(ctrl)
		}
		if slot < flat.NumInputs() {
			p.allX[slot] = logicsim.PairOf(logicsim.X, logicsim.X)
		} else {
			p.allX[slot] = flat.EvalPair(slot, p.allX)
		}
	}
	for oi := range c.Outputs {
		p.isPO[flat.OutputSlot(oi)] = true
	}
	return p, nil
}

// stuckTrit converts a stuck value to a Trit.
func stuckTrit(stuck bool) logicsim.Trit {
	if stuck {
		return logicsim.T
	}
	return logicsim.F
}

// nextEpoch advances an epoch counter for a mark array, clearing the
// marks when the counter wraps so a stale mark can never match.
func nextEpoch(epoch *uint32, marks []uint32) uint32 {
	*epoch++
	if *epoch == 0 {
		clear(marks)
		*epoch = 1
	}
	return *epoch
}

// target resets the generator for fault f: every input back to X, the
// site's cone collected, and the plane implied from scratch — the
// all-X plane, re-evaluated inside the cone where the faulty machine
// departs from it.
func (p *Podem) target(f fault.Fault) {
	p.site = int32(p.flat.SlotOf(f.Gate))
	p.pin = f.Pin
	p.stuck = stuckTrit(f.Stuck)
	p.siteType = p.c.Gates[f.Gate].Type
	p.line = p.site
	if f.Pin >= 0 {
		p.line = p.flat.FaninSlots(int(p.site))[f.Pin]
	}
	epoch := nextEpoch(&p.seenEpoch, p.seen)
	p.cone = append(p.cone[:0], p.site)
	p.seen[p.site] = epoch
	for i := 0; i < len(p.cone); i++ {
		s := p.cone[i]
		for _, fo := range p.fo[p.foAt[s]:p.foAt[s+1]] {
			if p.seen[fo] != epoch {
				p.seen[fo] = epoch
				p.cone = append(p.cone, fo)
			}
		}
	}
	slices.Sort(p.cone)
	p.coneOuts = p.coneOuts[:0]
	for i := range p.pi {
		p.pi[i] = logicsim.X
	}
	p.dirty = p.dirty[:0]
	copy(p.val, p.allX)
	for _, s := range p.cone {
		p.val[s] = p.eval(s)
		if p.isPO[s] {
			p.coneOuts = append(p.coneOuts, s)
		}
	}
}

// eval evaluates a logic slot in both machines. At the fault site the
// faulty machine takes the stuck value (stem fault) or is evaluated
// with the faulted pin forced (branch fault).
func (p *Podem) eval(s int32) logicsim.TritPair {
	v := p.flat.EvalPair(int(s), p.val)
	if s != p.site {
		return v
	}
	if p.pin < 0 {
		return v.WithBad(p.stuck)
	}
	in := p.in[:0]
	for k, fi := range p.flat.FaninSlots(int(s)) {
		b := p.val[fi].Bad()
		if k == p.pin {
			b = p.stuck
		}
		in = append(in, b)
	}
	p.in = in
	return v.WithBad(logicsim.EvalT(p.siteType, in))
}

// assign sets primary input i and queues it for the next imply.
func (p *Podem) assign(i int, v logicsim.Trit) {
	p.pi[i] = v
	p.dirty = append(p.dirty, int32(i))
}

// schedule queues every reader of slot s for re-evaluation.
func (p *Podem) schedule(s int32) {
	for _, fo := range p.fo[p.foAt[s]:p.foAt[s+1]] {
		p.pending[fo>>6] |= 1 << uint(fo&63)
	}
}

// imply brings both machines up to date with the inputs assigned since
// the last call: the changed inputs seed events, and every slot whose
// fanin changed is re-evaluated once, in ascending slot order, queueing
// its own readers only if its value changed. Readers always sit at
// higher slots, so one forward sweep of the bitset drains it.
func (p *Podem) imply() {
	for _, i := range p.dirty {
		v := logicsim.PairOf(p.pi[i], p.pi[i])
		if i == p.site {
			v = v.WithBad(p.stuck) // a stem fault on the input
		}
		if p.val[i] != v {
			p.val[i] = v
			p.schedule(i)
		}
	}
	p.dirty = p.dirty[:0]
	for w := range p.pending {
		for p.pending[w] != 0 {
			b := bits.TrailingZeros64(p.pending[w])
			p.pending[w] &^= 1 << uint(b)
			s := int32(w<<6 | b)
			if v := p.eval(s); v != p.val[s] {
				p.val[s] = v
				p.schedule(s)
			}
		}
	}
}

// good returns slot s's value in the good machine.
func (p *Podem) good(s int32) logicsim.Trit { return p.val[s].Good() }

// effectAt reports whether slot s carries a fault effect: both copies
// binary and different.
func (p *Podem) effectAt(s int32) bool {
	g, b := p.val[s].Good(), p.val[s].Bad()
	return g != logicsim.X && b != logicsim.X && g != b
}

// detected reports whether any primary output shows the effect (only
// outputs in the site's cone can).
func (p *Podem) detected() bool {
	for _, s := range p.coneOuts {
		if p.effectAt(s) {
			return true
		}
	}
	return false
}

// branchActivated reports whether a branch fault's effect is present at
// its pin: the driving line is binary and differs from the stuck value.
func (p *Podem) branchActivated() bool {
	if p.pin < 0 {
		return false
	}
	v := p.good(p.line)
	return v != logicsim.X && v != p.stuck
}

// scanFrontier collects the D-frontier — gates with at least one
// fault-effect input and an output still unknown in either copy — into
// p.frontier, and reports whether any slot carries the fault effect.
// For a branch fault, the faulted gate itself joins the frontier once
// the fault is activated, because the effect lives on the pin, which
// is invisible to slot values. Effects and frontier gates exist only
// inside the site's cone, so the scan covers the cone alone. It also
// picks the gate the objective advances: the frontier gate with the
// lowest gate ID among those with an input still X in the good
// machine (gate-ID order, not slot order, is the search's tie-break).
func (p *Podem) scanFrontier() bool {
	p.frontier = p.frontier[:0]
	p.objGate = -1
	objID := -1
	effect := false
	branch := p.branchActivated()
	numIn := int32(p.flat.NumInputs())
	for _, s := range p.cone {
		if g, b := p.val[s].Good(), p.val[s].Bad(); g != logicsim.X && b != logicsim.X {
			effect = effect || g != b
			continue
		}
		if s < numIn {
			continue
		}
		fanin := p.flat.FaninSlots(int(s))
		if !(s == p.site && branch) && !p.effectIn(fanin) {
			continue
		}
		p.frontier = append(p.frontier, s)
		if id := p.flat.GateAt(int(s)); (objID < 0 || id < objID) && p.firstX(fanin) >= 0 {
			objID, p.objGate = id, s
		}
	}
	return effect
}

// effectIn reports whether any of the slots carries the fault effect.
func (p *Podem) effectIn(slots []int32) bool {
	for _, s := range slots {
		if p.effectAt(s) {
			return true
		}
	}
	return false
}

// firstX returns the first of the slots whose good value is X, or -1.
func (p *Podem) firstX(slots []int32) int32 {
	for _, s := range slots {
		if p.good(s) == logicsim.X {
			return s
		}
	}
	return -1
}

// xPathExists checks that some D-frontier gate reaches a primary output
// through gates whose value is still unknown in either copy.
func (p *Podem) xPathExists() bool {
	if len(p.frontier) == 0 {
		return false
	}
	epoch := nextEpoch(&p.seenEpoch, p.seen)
	stack := append(p.stack[:0], p.frontier...)
	defer func() { p.stack = stack }()
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.seen[s] == epoch {
			continue
		}
		p.seen[s] = epoch
		if p.isPO[s] {
			return true
		}
		for _, fo := range p.fo[p.foAt[s]:p.foAt[s+1]] {
			if v := p.val[fo]; v.Good() == logicsim.X || v.Bad() == logicsim.X {
				stack = append(stack, fo)
			}
		}
	}
	return false
}

// controlling returns the controlling input value of a gate type and
// whether it has one.
func controlling(t netlist.GateType) (logicsim.Trit, bool) {
	switch t {
	case netlist.And, netlist.Nand:
		return logicsim.F, true
	case netlist.Or, netlist.Nor:
		return logicsim.T, true
	default:
		return logicsim.X, false
	}
}

// inverts reports whether the gate type inverts its (combined) input.
func inverts(t netlist.GateType) bool {
	switch t {
	case netlist.Nand, netlist.Nor, netlist.Not, netlist.Xnor:
		return true
	default:
		return false
	}
}

// backtrace maps an objective (slot, value) to an unassigned primary
// input and a value that tends to achieve the objective. Input slots
// come first in Circuit.Inputs order, so an input's slot is its index.
func (p *Podem) backtrace(s int32, v logicsim.Trit) (piIndex int, value logicsim.Trit, ok bool) {
	for {
		if int(s) < len(p.pi) {
			if p.pi[s] != logicsim.X {
				return 0, logicsim.X, false // already assigned: dead objective
			}
			return int(s), v, true
		}
		if p.inv[s] {
			v = logicsim.NotT(v)
		}
		// Choose an X-valued fanin; prefer the first.
		if s = p.firstX(p.flat.FaninSlots(int(s))); s < 0 {
			return 0, logicsim.X, false
		}
	}
}

// objective picks the next goal: activate the fault if not yet
// activated, otherwise advance the D-frontier gate the last
// scanFrontier chose.
func (p *Podem) objective() (s int32, v logicsim.Trit, ok bool) {
	if p.good(p.line) == logicsim.X {
		return p.line, logicsim.NotT(p.stuck), true
	}
	if p.objGate < 0 {
		return 0, logicsim.X, false
	}
	return p.firstX(p.flat.FaninSlots(int(p.objGate))), p.want[p.objGate], true
}

// decision is one node of the backtracking stack.
type decision struct {
	pi      int
	value   logicsim.Trit
	flipped bool
}

// Generate attempts to produce a test pattern for fault f. Unassigned
// inputs in a successful test are filled with 0 (deterministic), which
// keeps full runs reproducible; callers wanting random fill can
// post-process the returned assignment via FillX.
func (p *Podem) Generate(f fault.Fault) (logicsim.Pattern, Status) {
	if f.Gate < 0 || f.Gate >= len(p.c.Gates) || f.Pin >= len(p.c.Gates[f.Gate].Fanin) {
		return nil, Untestable
	}
	limit := p.BacktrackLimit
	if limit <= 0 {
		limit = 10000
	}
	p.target(f)
	p.decisions = p.decisions[:0]
	backtracks := 0
	for {
		p.imply()
		if p.detected() {
			return p.extractPattern(), Detected
		}
		failed := false
		// Activation impossible?
		if v := p.good(p.line); v != logicsim.X && v == p.stuck {
			failed = true
		}
		// Fault activated but effect vanished and no frontier to push,
		// or no X path from the frontier to an output (no output shows
		// the effect yet: detected() was false).
		if !failed && p.good(p.line) != logicsim.X {
			effect := p.scanFrontier()
			site := p.val[p.site]
			if !effect && !(p.branchActivated() && (site.Good() == logicsim.X || site.Bad() == logicsim.X)) {
				failed = true
			} else if !p.xPathExists() {
				failed = true
			}
		}
		if !failed {
			s, v, ok := p.objective()
			if ok {
				if pi, val, ok2 := p.backtrace(s, v); ok2 {
					p.decisions = append(p.decisions, decision{pi: pi, value: val})
					p.assign(pi, val)
					continue
				}
			}
		}
		// Backtrack.
		for {
			if len(p.decisions) == 0 {
				return nil, Untestable
			}
			top := &p.decisions[len(p.decisions)-1]
			if !top.flipped {
				top.flipped = true
				top.value = logicsim.NotT(top.value)
				p.assign(top.pi, top.value)
				backtracks++
				if backtracks > limit {
					return nil, Aborted
				}
				break
			}
			p.assign(top.pi, logicsim.X)
			p.decisions = p.decisions[:len(p.decisions)-1]
		}
	}
}

// extractPattern converts the PI assignment to a concrete pattern,
// filling X with 0.
func (p *Podem) extractPattern() logicsim.Pattern {
	out := make(logicsim.Pattern, len(p.pi))
	for i, v := range p.pi {
		out[i] = v == logicsim.T
	}
	return out
}
