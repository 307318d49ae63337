package logicsim

import (
	"fmt"
	"math/bits"
)

// The event-driven wide walk: difference propagation from the good
// machine, after concurrent fault simulation (Ulrich & Baker, 1974) and
// differential fault simulation (PROOFS, Niermann, Cheng & Patel,
// 1992). A lane block that no forced site can reach equals the good
// machine's value broadcast to every lane, so a walk only has to
// evaluate the forced sites and the fanout of every slot whose value
// differs from the good machine on a lane still of interest. On a large
// circuit whose chips carry a handful of faults each, that is a few
// percent of the slots; RunLaneForced walks them all.

// wideEvents is the event walk's scratch, built on a simulator's first
// RunLaneEvents: the slot-space fanout and two slot-indexed bitsets.
type wideEvents struct {
	foAt, fo []int32
	sched    []uint64 // slots awaiting evaluation this pattern
	valid    []uint64 // slots whose lane block holds this pattern's value
}

// events returns the event scratch, building it on first use.
func (s *WideSim) events() *wideEvents {
	if s.ev == nil {
		foAt, fo := s.f.Fanout()
		words := (s.f.Slots() + 63) / 64
		s.ev = &wideEvents{foAt: foAt, fo: fo,
			sched: make([]uint64, words), valid: make([]uint64, words)}
	}
	return s.ev
}

// RunLaneEvents computes what RunLaneForced computes on every lane set
// in alive, evaluating only the slots where such a lane can differ
// from the good machine. good holds the good machine of the 64-pattern
// block being applied (a FlatSim after RunInto of that block) and p is
// the pattern's index in it.
//
// The walk seeds the forcing table's sites touched this epoch and
// sweeps a slot-ordered schedule in ascending order — slot order is
// topological, so a slot's fanout is always scheduled before the sweep
// reaches it. A fanin not evaluated this pattern is materialized as the
// good machine's bit broadcast to every lane; an evaluated slot whose
// lane block differs from that broadcast on an alive lane schedules its
// fanout. Lanes are independent bits, so lanes outside alive may carry
// anything without disturbing the lanes inside it; a lane carrying no
// fault computes the good machine as in RunLaneForced. Output lane
// blocks are appended stride-packed to out in primary-output order.
//
// The second result counts the slots evaluated: the measure of how much
// of the circuit the forces disturb, which tells a caller when the full
// walk would be cheaper.
//
//repolint:hotpath
func (s *WideSim) RunLaneEvents(good *FlatSim, p int, lf *WideLaneForces, alive, out []uint64) ([]uint64, int, error) {
	f := s.f
	if good.f != f {
		return nil, 0, errGoodFlat()
	}
	if p < 0 || p >= 64 || good.mask>>uint(p)&1 == 0 {
		return nil, 0, errPatternRange(p, bits.OnesCount64(good.mask))
	}
	if lf.f != f || lf.words != s.words {
		return nil, 0, errForcesShape(lf.words)
	}
	if len(alive) != s.words {
		return nil, 0, errAliveWords(len(alive), s.words)
	}
	ev := s.events()
	w := s.words
	val, gv := s.val, good.val
	sched, valid := ev.sched, ev.valid
	clear(valid)
	for _, slot := range lf.live {
		sched[slot>>6] |= 1 << uint(slot&63)
	}
	n := 0
	for wi := range sched {
		for sched[wi] != 0 {
			b := bits.TrailingZeros64(sched[wi])
			sched[wi] &^= 1 << uint(b)
			slot := wi<<6 | b
			o := slot * w
			gb := -(gv[slot] >> uint(p) & 1)
			if slot < f.numIn {
				// Only a forced input is ever scheduled: the good bit
				// with its stem force applied.
				sb := lf.forcedSite(slot) * lf.stride
				for k := 0; k < w; k++ {
					val[o+k] = gb&^lf.stem[sb+k] | lf.stem[sb+w+k]
				}
			} else {
				for _, fs := range f.fanin[f.faninAt[slot]:f.faninAt[slot+1]] {
					if valid[fs>>6]>>uint(fs&63)&1 == 0 {
						valid[fs>>6] |= 1 << uint(fs&63)
						fb, fo := -(gv[fs] >> uint(p) & 1), int(fs)*w
						for k := 0; k < w; k++ {
							val[fo+k] = fb
						}
					}
				}
				s.evalForcedSlot(slot, lf)
			}
			valid[wi] |= 1 << uint(b)
			n++
			var d uint64
			for k := 0; k < w; k++ {
				d |= (val[o+k] ^ gb) & alive[k]
			}
			if d != 0 {
				for _, fo := range ev.fo[ev.foAt[slot]:ev.foAt[slot+1]] {
					sched[fo>>6] |= 1 << uint(fo&63)
				}
			}
		}
	}
	out = out[:0]
	for _, os := range f.outSlot {
		if valid[os>>6]>>uint(os&63)&1 == 1 {
			o := int(os) * w
			out = append(out, val[o:o+w]...)
			continue
		}
		gb := -(gv[os] >> uint(p) & 1)
		for k := 0; k < w; k++ {
			out = append(out, gb)
		}
	}
	return out, n, nil
}

// errGoodFlat and errAliveWords build RunLaneEvents' validation errors
// outside the annotated hot function.
func errGoodFlat() error {
	return fmt.Errorf("logicsim: good-machine simulator walks a different flat circuit")
}

func errAliveWords(got, words int) error {
	return fmt.Errorf("logicsim: %d-word alive mask for a %d-word walk", got, words)
}
