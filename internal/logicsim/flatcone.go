package logicsim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/netlist"
)

// FlatCone is the output cone of a fault site in slot space: every slot
// the site can disturb, as a sorted list of slot indices. Because slot
// order is topological, the ascending list is itself a valid evaluation
// order and the site is always first (everything else is a strict
// successor, hence a higher slot). This is the flat counterpart of
// Cone: where Cone carries gate IDs that each walk must chase through
// netlist.Gate structs, a FlatCone is consumed directly by the flat
// walks — no per-gate lookups, no level sorts.
type FlatCone struct {
	// Slots lists the cone in ascending (= topological) slot order; the
	// site's slot is Slots[0].
	Slots []int32
	// Outputs lists the indices into Circuit.Outputs (not slots) of the
	// primary outputs reachable from the site, ascending.
	Outputs []int32
	// OutPos[j] is the position within Slots of the slot driving
	// Outputs[j], so diffing needs no per-output lookup.
	OutPos []int32
	// Prog is the cone compiled to a flat instruction stream, one record
	// per slot of Slots[1:]. A 1- or 2-input gate is a fixed four-word
	// record [op, dst, a, b] (1-input gates duplicate their operand);
	// a wider gate is [op | fanin-count<<8, dst, operands...]. dst and
	// the operands are slot indices. The walk decodes the stream
	// sequentially instead of chasing the op/faninAt/fanin arrays slot
	// by slot — three data-dependent loads per gate become one
	// prefetchable stream — and the fixed shape lets one length test
	// per record stand in for four bounds checks (see coneWalk).
	Prog []int32
	// Bound is the cone's boundary: the distinct out-of-cone slots the
	// program reads (the fault cannot disturb them), in first-reference
	// order. The walk copies their good values into its shadow plane up
	// front, which is what lets its body run entirely on the shadow with
	// no membership test per operand (see coneWalk).
	Bound []int32
}

// FlatConeSet holds the output cones of a flat circuit's fault sites,
// each compiled the first time a caller asks for it (Ensure): one set
// per circuit serves every fault list ever simulated on it, and a
// sampled universe pays only for the sites it uses rather than for
// every slot. A cone is a pure function of its site, so the order in
// which cones get built never shows in any output. The set is cached
// on the circuit beside the Flat (one simCaches bundle, one
// invalidation rule).
//
// Concurrency: Ensure is the only writer and serializes on the set's
// mutex; ConeOfPtr is a lock-free read. A goroutine may read a slot's
// cone once an Ensure covering that slot has returned before the read
// (on the same goroutine, or before the reader was started), which is
// how the sharded engines use it: the session ensures its fault sites,
// then spawns its workers.
type FlatConeSet struct {
	f *Flat

	mu sync.Mutex
	// cones[slot] is the slot's cone once built; an unbuilt cone has
	// no Slots (every built cone holds at least its site). A cone's
	// five lists share one exactly sized block, so the set holds no
	// slack: no growth capacity, no half-used chunk.
	cones   []FlatCone
	members int // total (slot, cone) memberships built so far
}

// NewFlatConeSet returns an empty cone set over the flat circuit;
// cones are compiled on demand (Ensure, ConeOf).
func NewFlatConeSet(f *Flat) *FlatConeSet {
	return &FlatConeSet{f: f, cones: make([]FlatCone, f.Slots())}
}

// Ensure compiles the cones of the listed slots that are not built
// yet. It must return before any goroutine reads those cones through
// ConeOfPtr (see FlatConeSet). The compile scratch lives only for the
// call.
func (cs *FlatConeSet) Ensure(slots []int32) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var b *coneBuilder
	for _, s := range slots {
		slot := int(s)
		if slot < 0 || slot >= len(cs.cones) {
			return errSlotRange(slot)
		}
		if len(cs.cones[slot].Slots) != 0 {
			continue
		}
		if b == nil {
			b = newConeBuilder(cs.f)
		}
		if err := b.compile(s); err != nil {
			return err
		}
		cs.store(slot, b)
	}
	return nil
}

// store copies the cone b just compiled into one exactly sized block
// and installs it as the slot's cone. Callers hold cs.mu.
func (cs *FlatConeSet) store(slot int, b *coneBuilder) {
	block := make([]int32, 0, len(b.cone)+2*len(b.outIdx)+len(b.prog)+len(b.bnd))
	take := func(src []int32) []int32 {
		lo := len(block)
		block = append(block, src...)
		return block[lo:len(block):len(block)]
	}
	cs.cones[slot] = FlatCone{
		Slots:   take(b.cone),
		Outputs: take(b.outIdx),
		OutPos:  take(b.outPos),
		Prog:    take(b.prog),
		Bound:   take(b.bnd),
	}
	cs.members += len(b.cone)
}

// coneBuilder is the scratch one Ensure call compiles cones with: the
// slot-space fanout, per-slot output indices, epoch marks, and the
// lists of the cone being compiled.
type coneBuilder struct {
	f      *Flat
	foAt   []int32 // slot -> offset of its fanout in fo; len = slots+1
	fo     []int32 // concatenated fanout slot lists
	outOf  []int32 // slot -> index into Circuit.Outputs, or -1
	mark   []int32 // mark[slot] == site: slot is in site's cone
	seen   []int32 // seen[slot] == site: cone member or emitted boundary
	queue  []int32
	cone   []int32
	outIdx []int32
	outPos []int32
	prog   []int32
	bnd    []int32
}

func newConeBuilder(f *Flat) *coneBuilder {
	n := f.Slots()
	foAt, fo := f.Fanout()
	b := &coneBuilder{
		f:     f,
		foAt:  foAt,
		fo:    fo,
		outOf: make([]int32, n),
		mark:  make([]int32, n),
		seen:  make([]int32, n),
	}
	for i := range b.outOf {
		b.outOf[i] = -1
		b.mark[i] = -1
		b.seen[i] = -1
	}
	for oi, os := range f.outSlot {
		b.outOf[os] = int32(oi)
	}
	return b
}

// compile builds the cone of site into the builder's lists (see
// FlatCone for their meaning and layout).
func (b *coneBuilder) compile(site int32) error {
	f := b.f
	b.cone = append(b.cone[:0], site)
	b.queue = append(b.queue[:0], site)
	b.mark[site] = site
	for len(b.queue) > 0 {
		slot := b.queue[len(b.queue)-1]
		b.queue = b.queue[:len(b.queue)-1]
		for _, fo := range b.fo[b.foAt[slot]:b.foAt[slot+1]] {
			if b.mark[fo] != site {
				b.mark[fo] = site
				b.cone = append(b.cone, fo)
				b.queue = append(b.queue, fo)
			}
		}
	}
	// Ascending slot order is topological, so a plain integer sort
	// levelizes the cone.
	slices.Sort(b.cone)
	if b.cone[0] != site {
		return fmt.Errorf("logicsim: cone of slot %d does not start at the site (cycle?)", site)
	}
	b.outIdx, b.outPos = b.outIdx[:0], b.outPos[:0]
	for pos, slot := range b.cone {
		if oi := b.outOf[slot]; oi >= 0 {
			b.outIdx = append(b.outIdx, oi)
			b.outPos = append(b.outPos, int32(pos))
		}
	}
	// Keep Outputs ascending by output index (consumers rely on it to
	// find the first strobed output), carrying the positions along.
	sortOutPair(b.outIdx, b.outPos)
	// Compile the cone body to its instruction stream (see
	// FlatCone.Prog for the record shapes), collecting the boundary
	// (distinct out-of-cone fanins) on first reference. 1-input gates
	// duplicate their operand so every non-wide record is exactly four
	// words.
	for _, slot := range b.cone {
		b.seen[slot] = site
	}
	b.prog, b.bnd = b.prog[:0], b.bnd[:0]
	for _, slot := range b.cone[1:] {
		lo, hi := f.faninAt[slot], f.faninAt[slot+1]
		op := f.op[slot]
		if op <= opXnor2 {
			a := f.fanin[lo]
			c := a
			if hi-lo == 2 {
				c = f.fanin[lo+1]
			}
			b.prog = append(b.prog, int32(op), slot, a, c)
			b.boundary(site, a)
			b.boundary(site, c)
			continue
		}
		b.prog = append(b.prog, int32(op)|(hi-lo)<<8, slot)
		for _, fs := range f.fanin[lo:hi] {
			b.boundary(site, fs)
			b.prog = append(b.prog, fs)
		}
	}
	return nil
}

// boundary records fs as a boundary slot of site's cone on its first
// reference.
func (b *coneBuilder) boundary(site, fs int32) {
	if b.seen[fs] != site {
		b.seen[fs] = site
		b.bnd = append(b.bnd, fs)
	}
}

// sortOutPair sorts the parallel (outIdx, outPos) tails by output index
// (insertion sort: the lists are tiny — a cone rarely reaches more than
// a handful of outputs — and almost sorted already).
func sortOutPair(idx, pos []int32) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
}

// FlatConeSetFor returns the circuit's flat cone set, creating it (and
// the Flat underneath, if needed) on first use and caching both on the
// circuit until a mutation or ReleaseFlatCones drops the set. The set
// starts empty; callers Ensure the cones they walk.
// Like every lazy circuit cache it is safe for concurrent callers but
// must not race with mutation.
func FlatConeSetFor(c *netlist.Circuit) (*FlatConeSet, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	sc := cachesFor(c)
	if sc.flatCones != nil {
		return sc.flatCones, nil
	}
	if sc.flat == nil {
		f, err := NewFlat(c)
		if err != nil {
			return nil, err
		}
		sc.flat = f
	}
	sc.flatCones = NewFlatConeSet(sc.flat)
	return sc.flatCones, nil
}

// ReleaseFlatCones drops the circuit's cached cone set, keeping the
// Flat. Sessions already holding the set keep their pointer; a later
// FlatConeSetFor starts an empty set and compiles cones again (a cone
// is a pure function of its site, so the rebuilt ones are identical).
// It lets a one-shot consumer such as circuits.Prepare keep the cones
// alive only while it runs.
func ReleaseFlatCones(c *netlist.Circuit) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if sc, ok := c.SimCache().(*simCaches); ok {
		sc.flatCones = nil
	}
}

// Flat returns the compiled form the cones are expressed in.
func (cs *FlatConeSet) Flat() *Flat { return cs.f }

// ConeOf returns the output cone of the slot, compiling it first if
// needed. Both stem faults and input-pin faults of a gate disturb the
// gate's own output first, so one cone serves every fault on the
// slot's gate. The returned slices alias the set's storage; callers
// must not mutate them. A slot out of range yields an empty cone, which
// the walks reject.
func (cs *FlatConeSet) ConeOf(slot int) FlatCone {
	if err := cs.Ensure([]int32{int32(slot)}); err != nil {
		return FlatCone{}
	}
	return cs.cones[slot]
}

// ConeOfPtr is ConeOf for hot loops: it borrows the set's own FlatCone
// for the slot instead of copying five slice headers per lookup, and
// takes no lock. The slot's cone must have been built by an Ensure that
// returned before this call (see FlatConeSet); an unbuilt cone is
// empty, which the walks reject. The pointee is shared and immutable;
// callers must not mutate it.
//
//repolint:hotpath
func (cs *FlatConeSet) ConeOfPtr(slot int) *FlatCone {
	return &cs.cones[slot]
}

// Size reports the number of (slot, cone) memberships built so far —
// for a fully built set, the same measure ConeSet.Size reports for the
// pointer cones.
func (cs *FlatConeSet) Size() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.members
}

// RunCone re-simulates a single stuck-at *stem* fault on top of the
// good-machine state left in the simulator by the immediately preceding
// RunInto: only the fault's cone slots are re-evaluated (into a shadow
// plane — the good machine is never touched), and only the reachable
// primary outputs are diffed. An inactive fault — the stuck value
// equals the good value on every pattern of the block — returns
// immediately without touching the cone.
//
// The returned word has bit p set iff pattern p of the block produces a
// different value on some reachable output; if outDiffs is non-nil it
// must have one slot per primary output, and the entries of every
// reachable output are overwritten with that output's diff word
// (unreachable outputs are left untouched — they cannot differ). After
// the call the simulator again holds the good-machine values, so cone
// runs for many faults share one good evaluation.
//
//repolint:hotpath
func (s *FlatSim) RunCone(slot int, stuck bool, cone *FlatCone, outDiffs []uint64) (uint64, error) {
	if err := s.checkCone(slot, cone); err != nil {
		return 0, err
	}
	return s.coneWalk(stuckWord(stuck), cone, outDiffs), nil
}

// RunConeForced is RunCone for an *input-pin* fault: input pin `pin` of
// the slot's gate is forced to the stuck value during the site's
// evaluation only (the fanout-branch semantics), and the resulting site
// value propagates through the cone.
//
//repolint:hotpath
func (s *FlatSim) RunConeForced(slot, pin int, stuck bool, cone *FlatCone, outDiffs []uint64) (uint64, error) {
	if err := s.checkCone(slot, cone); err != nil {
		return 0, err
	}
	f := s.f
	if pin < 0 || int32(pin) >= f.faninAt[slot+1]-f.faninAt[slot] {
		return 0, errNoPin(slot, pin)
	}
	return s.coneWalk(s.evalForcedPin(slot, pin, stuckWord(stuck)), cone, outDiffs), nil
}

// checkCone validates the cone-walk preconditions shared by RunCone and
// RunConeForced.
//
//repolint:hotpath
func (s *FlatSim) checkCone(slot int, cone *FlatCone) error {
	if slot < 0 || slot >= len(s.f.op) {
		return errSlotRange(slot)
	}
	if len(cone.Slots) == 0 || cone.Slots[0] != int32(slot) {
		return errConeSite(slot)
	}
	if len(cone.Slots) > 1 && len(cone.Prog) == 0 {
		// A hand-assembled cone without its compiled program would walk
		// nothing and report every fault undetected.
		return errConeProg(slot)
	}
	if s.mask == 0 {
		// A real RunInto always leaves a non-zero mask; catching the
		// violated precondition beats silently reporting every fault
		// undetected.
		return errNoGoodRun()
	}
	return nil
}

// coneWalk propagates a forced site value through the cone and returns
// the diff word over the reachable outputs. v is the site's faulty
// value; cone.Slots[0] is the site. A fault the block never activates
// (faulty site value equals the good one on every valid lane) exits
// before touching the cone.
//
// The faulty values live entirely in a slot-indexed shadow plane: the
// prologue copies the cone's boundary values in, the body then reads
// and writes nothing but the shadow, decoding the compiled instruction
// stream in one linear pass — op and fanin slots arrive as one
// sequential read (hardware-prefetched) instead of three data-dependent
// loads through op/faninAt/fanin per gate, with the common 1- and
// 2-input gates evaluated inline. The good machine in s.val is never
// mutated, so there is no save/restore traffic, and no clearing between
// walks either: topological order means every in-cone slot is written
// (site in the prologue, the rest as the body reaches them) before
// anything reads it, and every out-of-cone read is covered by the
// boundary copy. Evaluating the whole cone unconditionally beats
// divergence-suppressed variants here — with activation early-exit
// culling the all-clean walks, the surviving walks diverge enough that
// per-gate dirty tracking costs more than it skips.
//
// The body consumes the stream through a shrinking slice window whose
// `len(p) > 3` loop condition proves every access of a four-word record
// in bounds: the only bounds checks left per gate are the data-indexed
// shadow accesses, which measurably matters at this loop's intensity.
//
//repolint:hotpath
func (s *FlatSim) coneWalk(v uint64, cone *FlatCone, outDiffs []uint64) uint64 {
	val := s.val
	if outDiffs != nil {
		for _, oi := range cone.Outputs {
			outDiffs[oi] = 0
		}
	}
	slots := cone.Slots
	site := slots[0]
	if (v^val[site])&s.mask == 0 {
		return 0 // fault not activated by any pattern of the block
	}
	if len(s.shadow) < len(val) {
		s.shadow = make([]uint64, len(val))
	}
	shadow := s.shadow
	shadow[site] = v
	for _, b := range cone.Bound {
		shadow[b] = val[b]
	}
	for p := cone.Prog; len(p) > 3; {
		h := p[0]
		var nv uint64
		switch uint8(h) {
		case opBuf:
			nv = shadow[p[2]]
		case opNot:
			nv = ^shadow[p[2]]
		case opAnd2:
			nv = shadow[p[2]] & shadow[p[3]]
		case opNand2:
			nv = ^(shadow[p[2]] & shadow[p[3]])
		case opOr2:
			nv = shadow[p[2]] | shadow[p[3]]
		case opNor2:
			nv = ^(shadow[p[2]] | shadow[p[3]])
		case opXor2:
			nv = shadow[p[2]] ^ shadow[p[3]]
		case opXnor2:
			nv = ^(shadow[p[2]] ^ shadow[p[3]])
		default:
			nf := int(h >> 8)
			// The shadow is indexed by slot exactly like the value
			// plane, so the shared N-ary evaluator applies unchanged.
			shadow[p[1]] = evalFlatN(uint8(h), p[2:2+nf], shadow)
			p = p[2+nf:]
			continue
		}
		shadow[p[1]] = nv
		p = p[4:]
	}
	var diff uint64
	for j, oi := range cone.Outputs {
		os := slots[cone.OutPos[j]]
		d := (shadow[os] ^ val[os]) & s.mask
		diff |= d
		if outDiffs != nil {
			outDiffs[oi] = d
		}
	}
	return diff
}

// evalForcedPin evaluates one slot with a single fanin word replaced by
// the forced word — the site evaluation of an input-pin fault. No
// staging buffer: each op family folds its fanin inline, substituting
// at the forced pin.
//
//repolint:hotpath
func (s *FlatSim) evalForcedPin(slot, pin int, forced uint64) uint64 {
	f := s.f
	val := s.val
	fanin := f.fanin[f.faninAt[slot]:f.faninAt[slot+1]]
	pick := forced
	if pin != 0 {
		pick = val[fanin[0]]
	}
	op := f.op[slot]
	switch op {
	case opBuf:
		return pick
	case opNot:
		return ^pick
	}
	v := pick
	switch op {
	case opAnd2, opNand2, opAndN, opNandN:
		for i := 1; i < len(fanin); i++ {
			w := val[fanin[i]]
			if i == pin {
				w = forced
			}
			v &= w
		}
		if op == opNand2 || op == opNandN {
			v = ^v
		}
	case opOr2, opNor2, opOrN, opNorN:
		for i := 1; i < len(fanin); i++ {
			w := val[fanin[i]]
			if i == pin {
				w = forced
			}
			v |= w
		}
		if op == opNor2 || op == opNorN {
			v = ^v
		}
	case opXor2, opXnor2, opXorN, opXnorN:
		for i := 1; i < len(fanin); i++ {
			w := val[fanin[i]]
			if i == pin {
				w = forced
			}
			v ^= w
		}
		if op == opXnor2 || op == opXnorN {
			v = ^v
		}
	}
	return v
}

// Cold-path error constructors for the annotated cone walks: the
// formatting machinery stays out of the hot functions.

func errSlotRange(slot int) error {
	return fmt.Errorf("logicsim: fault slot %d out of range", slot)
}

func errConeSite(slot int) error {
	return fmt.Errorf("logicsim: cone does not start at fault slot %d", slot)
}

func errConeProg(slot int) error {
	return fmt.Errorf("logicsim: cone of slot %d carries no compiled program (not built by ConeOf?)", slot)
}

func errNoGoodRun() error {
	return fmt.Errorf("logicsim: cone walk requires a preceding RunInto")
}

func errNoPin(slot, pin int) error {
	return fmt.Errorf("logicsim: slot %d has no pin %d", slot, pin)
}
