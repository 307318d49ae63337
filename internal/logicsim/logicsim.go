// Package logicsim simulates combinational circuits on one substrate,
// the flat struct-of-arrays compiled form (Flat). It provides
//
//   - a 64-way bit-parallel levelized walk (FlatSim): each uint64 word
//     carries 64 independent input patterns, the standard trick the
//     fault simulator builds on, with single- and multi-fault
//     injection;
//   - per-slot output cones compiled on demand for the fault sites in
//     use (FlatConeSet) and cone-restricted faulty re-simulation
//     (RunCone/RunConeForced), the structural machinery the fault
//     simulator's fast engines are built on;
//   - N-word lane blocks (WideSim) with per-lane fault forcing
//     (WideLaneForces), where each bit-lane carries its own machine: the
//     fault-parallel and chip-parallel engines' walk;
//   - three-valued (0/1/X) gate functions: EvalT per gate, and
//     Flat.EvalPair over a plane of TritPair values carrying a good and
//     a faulty machine at once, the PODEM test generator's
//     event-driven implication step.
package logicsim

import (
	"fmt"

	"repro/internal/netlist"
)

// Pattern assigns one bit per primary input, in the circuit's input
// order.
type Pattern []bool

// PatternBlock packs up to 64 patterns: word i of the block is the
// values of input i across the patterns (bit p = pattern p's value).
type PatternBlock struct {
	Inputs []uint64 // one word per primary input
	Count  int      // number of valid patterns (1..64)
}

// PackPatterns packs up to 64 patterns into a block. All patterns must
// have the same width (the circuit's input count).
func PackPatterns(patterns []Pattern) (PatternBlock, error) {
	if len(patterns) == 0 || len(patterns) > 64 {
		return PatternBlock{}, fmt.Errorf("logicsim: block needs 1..64 patterns, got %d", len(patterns))
	}
	width := len(patterns[0])
	words := make([]uint64, width)
	for p, pat := range patterns {
		if len(pat) != width {
			return PatternBlock{}, fmt.Errorf("logicsim: pattern %d width %d != %d", p, len(pat), width)
		}
		// Branchless bit scatter: a bool is 0 or 1, so converting and
		// shifting beats a per-bit branch that mispredicts half the time
		// on random patterns (packing is a measurable slice of a short
		// fault-simulation run).
		bit := uint(p)
		for i, v := range pat {
			var b uint64
			if v {
				b = 1
			}
			words[i] |= b << bit
		}
	}
	return PatternBlock{Inputs: words, Count: len(patterns)}, nil
}

// Mask returns the valid-pattern mask of the block. Count is assumed
// valid (1..64, as PackPatterns produces); the Run entry points reject
// anything else before Mask is consulted, because a negative Count
// would shift-wrap into an all-ones mask and silently treat 64 garbage
// lanes as real patterns.
func (b PatternBlock) Mask() uint64 {
	if b.Count >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(b.Count)) - 1
}

// validate rejects a block whose shape cannot have come from
// PackPatterns: wrong input count, or a Count outside 1..64 (the
// zero-value PatternBlock being the classic way to hit it).
func (b PatternBlock) validate(nIn int) error {
	if len(b.Inputs) != nIn {
		return fmt.Errorf("logicsim: block has %d inputs, circuit %d", len(b.Inputs), nIn)
	}
	if b.Count < 1 || b.Count > 64 {
		return fmt.Errorf("logicsim: block Count %d outside 1..64 (zero-value PatternBlock?)", b.Count)
	}
	return nil
}

// evalWords evaluates one gate of type t over explicit fanin words:
// the bit-parallel gate function for walks that stage fanin words
// themselves (a gate whose pins carry forced values) before
// evaluation.
func evalWords(t netlist.GateType, words []uint64) uint64 {
	switch t {
	case netlist.Buf:
		return words[0]
	case netlist.Not:
		return ^words[0]
	case netlist.And, netlist.Nand:
		v := words[0]
		for _, w := range words[1:] {
			v &= w
		}
		if t == netlist.Nand {
			return ^v
		}
		return v
	case netlist.Or, netlist.Nor:
		v := words[0]
		for _, w := range words[1:] {
			v |= w
		}
		if t == netlist.Nor {
			return ^v
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := words[0]
		for _, w := range words[1:] {
			v ^= w
		}
		if t == netlist.Xnor {
			return ^v
		}
		return v
	default:
		panic(fmt.Sprintf("logicsim: cannot evaluate gate type %v", t))
	}
}
