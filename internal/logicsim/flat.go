package logicsim

import (
	"fmt"
	"sync"

	"repro/internal/netlist"
)

// Flat is a compiled, struct-of-arrays form of a circuit built for the
// hot walks: gate functions, fanin references, and output positions
// live in contiguous arrays indexed by *slot* (a position in a fixed
// topological evaluation order), so a full-circuit pass is one linear
// sweep with no per-gate struct dereferences, no fanin slice headers,
// and no Input-type branch — inputs occupy slots [0, NumInputs) and
// the walk starts after them.
//
// Slot order: primary inputs first, in Circuit.Inputs order (so a
// PatternBlock loads with one copy), then every logic gate in
// topological order. Because fanins are stored as slot indices, slot
// order is itself a valid evaluation order, and ascending-slot subsets
// (like the union cones the fault-parallel engine walks) stay topological with a
// plain integer sort.
//
// A Flat is immutable after construction and safe for concurrent
// readers; per-goroutine walk state lives in FlatSim / WideSim. It can
// be cached on the circuit (see FlatFor), in which case it is dropped
// on any mutation.
type Flat struct {
	c     *netlist.Circuit
	numIn int

	op      []uint8 // flat gate function per slot (op* codes)
	faninAt []int32 // slot -> offset of its first fanin; len = slots+1
	fanin   []int32 // flattened fanin slot indices, pin order preserved

	slotOf  []int32 // gate ID -> slot
	gateOf  []int32 // slot -> gate ID
	outSlot []int32 // primary-output index -> slot
}

// Flat op codes: the gate-function switch of the flat walks. The
// ubiquitous 1- and 2-input shapes get their own codes so the inner
// loop evaluates them without a fanin-count branch; *N codes loop.
const (
	opInput uint8 = iota
	opBuf
	opNot
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
	opAndN
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
)

// opFor compiles a gate type + fanin count to a flat op code.
func opFor(t netlist.GateType, fanins int) (uint8, error) {
	if t == netlist.Input {
		return opInput, nil
	}
	if fanins == 1 {
		// Degenerate 1-input logic gates reduce to a buffer or inverter,
		// matching eval/EvalWords semantics.
		switch t {
		case netlist.Buf, netlist.And, netlist.Or, netlist.Xor:
			return opBuf, nil
		case netlist.Not, netlist.Nand, netlist.Nor, netlist.Xnor:
			return opNot, nil
		}
	}
	if fanins == 2 {
		switch t {
		case netlist.And:
			return opAnd2, nil
		case netlist.Nand:
			return opNand2, nil
		case netlist.Or:
			return opOr2, nil
		case netlist.Nor:
			return opNor2, nil
		case netlist.Xor:
			return opXor2, nil
		case netlist.Xnor:
			return opXnor2, nil
		}
	}
	switch t {
	case netlist.And:
		return opAndN, nil
	case netlist.Nand:
		return opNandN, nil
	case netlist.Or:
		return opOrN, nil
	case netlist.Nor:
		return opNorN, nil
	case netlist.Xor:
		return opXorN, nil
	case netlist.Xnor:
		return opXnorN, nil
	}
	return 0, fmt.Errorf("logicsim: cannot compile gate type %v", t)
}

// NewFlat compiles the circuit, levelizing it and validating that every
// logic gate has fanin (a zero-fanin non-input gate would otherwise
// panic mid-walk in every simulator; failing at compile names the
// gate).
func NewFlat(c *netlist.Circuit) (*Flat, error) {
	order, err := c.Order()
	if err != nil {
		return nil, err
	}
	for id := range c.Gates {
		g := &c.Gates[id]
		if g.Type != netlist.Input && len(g.Fanin) == 0 {
			return nil, fmt.Errorf("logicsim: gate %q (%v) has no fanin and is not a primary input", g.Name, g.Type)
		}
	}
	n := len(c.Gates)
	f := &Flat{
		c:       c,
		numIn:   len(c.Inputs),
		op:      make([]uint8, n),
		faninAt: make([]int32, n+1),
		slotOf:  make([]int32, n),
		gateOf:  make([]int32, n),
		outSlot: make([]int32, len(c.Outputs)),
	}
	// Inputs claim the leading slots in declaration order; the remaining
	// gates follow in topological order.
	slot := 0
	for _, id := range c.Inputs {
		f.slotOf[id] = int32(slot)
		f.gateOf[slot] = int32(id)
		slot++
	}
	for _, id := range order {
		if c.Gates[id].Type == netlist.Input {
			continue
		}
		f.slotOf[id] = int32(slot)
		f.gateOf[slot] = int32(id)
		slot++
	}
	if slot != n {
		// An Input-typed gate missing from Circuit.Inputs (hand-built
		// circuit skipping AddGate) would silently corrupt the layout.
		return nil, fmt.Errorf("logicsim: circuit %q has %d gates but %d slots (input list inconsistent)", c.Name, n, slot)
	}
	total := 0
	for _, g := range c.Gates {
		total += len(g.Fanin)
	}
	f.fanin = make([]int32, 0, total)
	for s := 0; s < n; s++ {
		g := &c.Gates[f.gateOf[s]]
		f.faninAt[s] = int32(len(f.fanin))
		for _, fid := range g.Fanin {
			f.fanin = append(f.fanin, f.slotOf[fid])
		}
		op, err := opFor(g.Type, len(g.Fanin))
		if err != nil {
			return nil, fmt.Errorf("logicsim: gate %q: %w", g.Name, err)
		}
		f.op[s] = op
	}
	f.faninAt[n] = int32(len(f.fanin))
	for oi, id := range c.Outputs {
		f.outSlot[oi] = f.slotOf[id]
	}
	return f, nil
}

// FlatFor returns the circuit's flat compiled form, building it on
// first use and caching it on the circuit (every simulator-derived
// cache lives in the same SimCache slot and is dropped together on any
// mutation). Safe for concurrent callers on a levelized circuit, but
// like every lazy circuit cache it must not race with mutation.
func FlatFor(c *netlist.Circuit) (*Flat, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	sc := cachesFor(c)
	if sc.flat != nil {
		return sc.flat, nil
	}
	f, err := NewFlat(c)
	if err != nil {
		return nil, err
	}
	sc.flat = f
	return f, nil
}

// Circuit returns the circuit the flat form was compiled from.
func (f *Flat) Circuit() *netlist.Circuit { return f.c }

// Slots returns the number of slots (== gates).
func (f *Flat) Slots() int { return len(f.op) }

// NumInputs returns the number of primary-input slots; slots
// [0, NumInputs) are the inputs in Circuit.Inputs order.
func (f *Flat) NumInputs() int { return f.numIn }

// SlotOf maps a gate ID to its slot.
func (f *Flat) SlotOf(gate int) int { return int(f.slotOf[gate]) }

// GateAt maps a slot back to its gate ID.
func (f *Flat) GateAt(slot int) int { return int(f.gateOf[slot]) }

// IsInputSlot reports whether the slot holds a primary input.
func (f *Flat) IsInputSlot(slot int) bool { return slot < f.numIn }

// FaninSlots returns the fanin of a slot as slot indices, in pin order.
// The returned slice aliases the flat arrays; callers must not mutate
// it.
func (f *Flat) FaninSlots(slot int) []int32 {
	return f.fanin[f.faninAt[slot]:f.faninAt[slot+1]]
}

// OutputSlot returns the slot of primary output oi (an index into
// Circuit.Outputs).
func (f *Flat) OutputSlot(oi int) int { return int(f.outSlot[oi]) }

// Fanout computes the slot-space fanout of the flat circuit: the slots
// reading slot s are fanout[at[s]:at[s+1]], ascending, one entry per
// reading pin. The arrays are freshly allocated and owned by the
// caller; the Flat itself keeps only fanin.
func (f *Flat) Fanout() (at, fanout []int32) {
	n := len(f.op)
	at = make([]int32, n+1)
	for _, fs := range f.fanin {
		at[fs+1]++
	}
	for s := 0; s < n; s++ {
		at[s+1] += at[s]
	}
	// Fill by advancing each slot's start offset past the entries it
	// receives; afterwards at[s] holds the old at[s+1], so one shift
	// back restores the offsets without a separate fill counter.
	fanout = make([]int32, len(f.fanin))
	for slot := 0; slot < n; slot++ {
		for _, fs := range f.fanin[f.faninAt[slot]:f.faninAt[slot+1]] {
			fanout[at[fs]] = int32(slot)
			at[fs]++
		}
	}
	copy(at[1:], at[:n])
	at[0] = 0
	return at, fanout
}

// FlatSim is the 64-lane walk state over a Flat: one value word per
// slot, reused across runs. It is not safe for concurrent use; create
// one per goroutine over the shared Flat.
type FlatSim struct {
	f    *Flat
	val  []uint64
	mask uint64 // valid-pattern mask of the last RunInto block
	// Cone-walk scratch (see coneWalk): the slot-indexed shadow value
	// plane the faulty values propagate through, allocated on the first
	// cone walk and kept warm. The good machine in val is never mutated
	// by a cone walk, so there is nothing to save or restore.
	shadow []uint64
	// Multi-fault walk scratch (see RunWithFaultsInto): the resolved,
	// slot-sorted fault list and a fanin staging buffer.
	multi []SlotInjection
	stage []uint64
}

// NewFlatSim allocates walk state for the flat circuit.
func NewFlatSim(f *Flat) *FlatSim {
	return &FlatSim{f: f, val: make([]uint64, len(f.op))}
}

// Flat returns the compiled form the simulator walks.
func (s *FlatSim) Flat() *Flat { return s.f }

// RunInto simulates the block and appends the primary-output words to
// out (reusing its capacity). Passing out with capacity >= the output
// count makes the steady state zero-alloc.
//
//repolint:hotpath
func (s *FlatSim) RunInto(block PatternBlock, out []uint64) ([]uint64, error) {
	f := s.f
	if err := block.validate(f.numIn); err != nil {
		return nil, err
	}
	s.mask = block.Mask()
	copy(s.val[:f.numIn], block.Inputs)
	s.walkRange(f.numIn, len(f.op))
	out = out[:0]
	for _, os := range f.outSlot {
		out = append(out, s.val[os])
	}
	return out, nil
}

// RunWithFaultInto simulates the block with a single stuck-at fault
// injected and appends the primary-output words to out (reusing its
// capacity): the walk behind the faultsim Serial baseline. slot is the fault
// site's slot; pin < 0 is a stem fault on the slot's output, pin >= 0
// forces that input pin during the slot's evaluation only.
//
//repolint:hotpath
func (s *FlatSim) RunWithFaultInto(block PatternBlock, slot, pin int, stuck bool, out []uint64) ([]uint64, error) {
	f := s.f
	if err := block.validate(f.numIn); err != nil {
		return nil, err
	}
	if slot < 0 || slot >= len(f.op) {
		return nil, errSlotRange(slot)
	}
	word := stuckWord(stuck)
	s.mask = block.Mask()
	copy(s.val[:f.numIn], block.Inputs)
	switch {
	case slot < f.numIn:
		// A fault on a primary input: stem forces the input word itself;
		// a pin fault is impossible (inputs have no fanin).
		if pin >= 0 {
			return nil, errNoPin(slot, pin)
		}
		s.val[slot] = word
		s.walkRange(f.numIn, len(f.op))
	case pin < 0:
		// Stem fault on a logic slot: walk up to the site, overwrite its
		// output, walk the rest.
		s.walkRange(f.numIn, slot)
		s.val[slot] = word
		s.walkRange(slot+1, len(f.op))
	default:
		if int32(pin) >= f.faninAt[slot+1]-f.faninAt[slot] {
			return nil, errNoPin(slot, pin)
		}
		s.walkRange(f.numIn, slot)
		s.val[slot] = s.evalForcedPin(slot, pin, word)
		s.walkRange(slot+1, len(f.op))
	}
	out = out[:0]
	for _, os := range f.outSlot {
		out = append(out, s.val[os])
	}
	return out, nil
}

// Value returns the value word of a slot after the last run; the
// fault-parallel engine reads good-machine frontier values through it.
func (s *FlatSim) Value(slot int) uint64 { return s.val[slot] }

// walkRange is the flat hot loop: one linear pass over the logic slots
// in [lo, hi), a single op switch per gate, contiguous fanin indices.
// Full runs walk [numIn, Slots); the fault-injecting walk splits the
// range around the fault site.
//
//repolint:hotpath
func (s *FlatSim) walkRange(lo, hi int) {
	f := s.f
	val, fanin, faninAt := s.val, f.fanin, f.faninAt
	for slot := lo; slot < hi; slot++ {
		fa := faninAt[slot]
		var v uint64
		switch f.op[slot] {
		case opBuf:
			v = val[fanin[fa]]
		case opNot:
			v = ^val[fanin[fa]]
		case opAnd2:
			v = val[fanin[fa]] & val[fanin[fa+1]]
		case opNand2:
			v = ^(val[fanin[fa]] & val[fanin[fa+1]])
		case opOr2:
			v = val[fanin[fa]] | val[fanin[fa+1]]
		case opNor2:
			v = ^(val[fanin[fa]] | val[fanin[fa+1]])
		case opXor2:
			v = val[fanin[fa]] ^ val[fanin[fa+1]]
		case opXnor2:
			v = ^(val[fanin[fa]] ^ val[fanin[fa+1]])
		default:
			v = evalFlatN(f.op[slot], fanin[fa:faninAt[slot+1]], val)
		}
		val[slot] = v
	}
}

// evalFlatN evaluates the wide (3+ fanin) op codes.
func evalFlatN(op uint8, fanin []int32, val []uint64) uint64 {
	v := val[fanin[0]]
	switch op {
	case opAndN, opNandN:
		for _, fs := range fanin[1:] {
			v &= val[fs]
		}
		if op == opNandN {
			v = ^v
		}
	case opOrN, opNorN:
		for _, fs := range fanin[1:] {
			v |= val[fs]
		}
		if op == opNorN {
			v = ^v
		}
	case opXorN, opXnorN:
		for _, fs := range fanin[1:] {
			v ^= val[fs]
		}
		if op == opXnorN {
			v = ^v
		}
	default:
		panic(fmt.Sprintf("logicsim: evalFlatN on op %d", op))
	}
	return v
}

// simCaches bundles every simulator-derived precomputation that hangs
// off a circuit's SimCache slot — the per-gate output cones, the flat
// compiled form, and the flat slot cones share one cache object so they
// share one invalidation rule: any circuit mutation drops all three.
type simCaches struct {
	cones     *ConeSet
	flat      *Flat
	flatCones *FlatConeSet
}

// cacheMu serializes the lazy cache builds (FlatFor, ConeSetFor): the
// SimCache slot itself is unsynchronized, and concurrent sweep workers
// compile the shared circuit lazily from their per-worker ATEs. One
// package-level mutex suffices — these are once-per-circuit setup
// paths, never inner loops.
var cacheMu sync.Mutex

// cachesFor returns the circuit's cache bundle, installing an empty one
// on first use. Callers must hold cacheMu.
func cachesFor(c *netlist.Circuit) *simCaches {
	if sc, ok := c.SimCache().(*simCaches); ok {
		return sc
	}
	sc := &simCaches{}
	c.SetSimCache(sc)
	return sc
}
