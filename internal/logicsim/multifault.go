package logicsim

import (
	"cmp"
	"fmt"
	"slices"
)

// Injection is one stuck-at fault to inject during simulation. Pin < 0
// places the fault on the gate output; otherwise on that input pin.
// (It mirrors fault.Fault without importing it, keeping this package a
// pure simulation substrate.)
type Injection struct {
	Gate  int
	Pin   int
	Stuck bool
}

// SlotInjection is an Injection resolved to slot space: the fault site
// as a flat slot index, with site and pin validation already done. A
// negative Pin is an output-stem fault, as in Injection.
// Flat.ResolveInjections produces them; AddResolved consumes them
// without revalidating — the bulk-build path of the lot engines, which
// rebuild forcing tables from the same fault universe every batch and
// would otherwise pay the gate-range check and gate→slot lookup on
// every one of those adds.
type SlotInjection struct {
	Slot  int32
	Pin   int32
	Stuck bool
}

// resolve validates one injection against the flat circuit and maps it
// to slot space.
func (f *Flat) resolve(fi Injection) (SlotInjection, error) {
	if fi.Gate < 0 || fi.Gate >= f.Slots() {
		return SlotInjection{}, fmt.Errorf("logicsim: fault site %d out of range", fi.Gate)
	}
	slot := f.slotOf[fi.Gate]
	if fi.Pin >= 0 {
		if nf := int(f.faninAt[slot+1] - f.faninAt[slot]); fi.Pin >= nf {
			return SlotInjection{}, fmt.Errorf("logicsim: gate %d has no pin %d", fi.Gate, fi.Pin)
		}
	}
	return SlotInjection{Slot: slot, Pin: int32(fi.Pin), Stuck: fi.Stuck}, nil
}

// ResolveInjections validates a fault list and resolves it to slot
// space in one pass, so repeated table builds over the same universe
// can use AddResolved instead of revalidating every fault.
func (f *Flat) ResolveInjections(faults []Injection) ([]SlotInjection, error) {
	out := make([]SlotInjection, len(faults))
	for i, fi := range faults {
		si, err := f.resolve(fi)
		if err != nil {
			return nil, err
		}
		out[i] = si
	}
	return out, nil
}

// RunWithFaultsInto simulates the block with *all* the given faults
// present simultaneously — the multiple-fault machine a physically
// defective chip actually is — and appends the primary-output words to
// out (reusing its capacity). Every fault is present on all 64 pattern
// lanes. The paper's model treats a chip's defects as equivalent to n
// single stuck faults; the tester's serial oracle and the diagnosis
// datalog use this walk to exercise that assumption honestly rather
// than assuming single faults.
//
// Faults at the same site apply in list order, so the last stuck value
// on a stem (or on a given pin) wins, matching how a physical short
// list is applied. Pin faults force their fanin word during the gate's
// evaluation only (the fanout-branch semantics); a stem fault on the
// same gate overrides the result. The resolved fault list and the
// staging buffer are scratch owned by the simulator, so repeated calls
// with no more faults than before allocate nothing.
func (s *FlatSim) RunWithFaultsInto(block PatternBlock, faults []Injection, out []uint64) ([]uint64, error) {
	f := s.f
	if err := block.validate(f.numIn); err != nil {
		return nil, err
	}
	s.multi = s.multi[:0]
	for _, fi := range faults {
		si, err := f.resolve(fi)
		if err != nil {
			return nil, err
		}
		s.multi = append(s.multi, si)
	}
	// A stable sort by slot groups each site's faults in list order and
	// visits the sites in evaluation order.
	slices.SortStableFunc(s.multi, func(a, b SlotInjection) int { return cmp.Compare(a.Slot, b.Slot) })
	s.mask = block.Mask()
	copy(s.val[:f.numIn], block.Inputs)
	next := f.numIn // first slot not yet evaluated
	for lo := 0; lo < len(s.multi); {
		slot := int(s.multi[lo].Slot)
		hi := lo + 1
		for hi < len(s.multi) && int(s.multi[hi].Slot) == slot {
			hi++
		}
		site := s.multi[lo:hi]
		if slot >= f.numIn {
			s.walkRange(next, slot)
			s.val[slot] = s.evalPinsForced(slot, site)
			next = slot + 1
		}
		for _, si := range site {
			if si.Pin < 0 {
				s.val[slot] = stuckWord(si.Stuck)
			}
		}
		lo = hi
	}
	s.walkRange(next, len(f.op))
	out = out[:0]
	for _, os := range f.outSlot {
		out = append(out, s.val[os])
	}
	return out, nil
}

// evalPinsForced evaluates one logic slot with the pin faults among
// site (all on this slot) forcing their fanin words, in list order.
func (s *FlatSim) evalPinsForced(slot int, site []SlotInjection) uint64 {
	f := s.f
	fanin := f.fanin[f.faninAt[slot]:f.faninAt[slot+1]]
	s.stage = s.stage[:0]
	for _, fs := range fanin {
		s.stage = append(s.stage, s.val[fs])
	}
	for _, si := range site {
		if si.Pin >= 0 {
			s.stage[si.Pin] = stuckWord(si.Stuck)
		}
	}
	return evalWords(f.c.Gates[f.gateOf[slot]].Type, s.stage)
}

// stuckWord is the value word of a stuck-at fault on every lane.
func stuckWord(stuck bool) uint64 {
	if stuck {
		return ^uint64(0)
	}
	return 0
}
