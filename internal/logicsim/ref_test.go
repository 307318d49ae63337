package logicsim

import (
	"fmt"
	"testing"

	"repro/internal/netlist"
)

// This file holds the package's test oracle: a bool-per-gate reference
// evaluator that shares no code with the flat walks (no compiled ops,
// no slot order, no packed words), plus a gate-ID adapter over FlatSim
// so the functional tests read in circuit terms.

// refBool evaluates one gate over boolean fanin values.
func refBool(t netlist.GateType, in []bool) bool {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return !in[0]
	case netlist.And, netlist.Nand:
		v := true
		for _, x := range in {
			v = v && x
		}
		return v != (t == netlist.Nand)
	case netlist.Or, netlist.Nor:
		v := false
		for _, x := range in {
			v = v || x
		}
		return v != (t == netlist.Nor)
	case netlist.Xor, netlist.Xnor:
		v := false
		for _, x := range in {
			v = v != x
		}
		return v != (t == netlist.Xnor)
	}
	panic(fmt.Sprintf("refBool: gate type %v", t))
}

// refEval simulates one pattern gate by gate with every listed fault
// present (the last fault listed on a stem or pin wins) and returns the
// primary-output values.
func refEval(c *netlist.Circuit, p Pattern, faults []Injection) []bool {
	val := refGates(c, p, faults)
	out := make([]bool, len(c.Outputs))
	for o, id := range c.Outputs {
		out[o] = val[id]
	}
	return out
}

// refGates is refEval returning every gate's value, by gate ID.
func refGates(c *netlist.Circuit, p Pattern, faults []Injection) []bool {
	type pinKey struct{ gate, pin int }
	stem := map[int]bool{}
	pins := map[pinKey]bool{}
	for _, f := range faults {
		if f.Pin < 0 {
			stem[f.Gate] = f.Stuck
		} else {
			pins[pinKey{f.Gate, f.Pin}] = f.Stuck
		}
	}
	order, err := c.Order()
	if err != nil {
		panic(err)
	}
	val := make([]bool, len(c.Gates))
	for i, id := range c.Inputs {
		val[id] = p[i]
	}
	var in []bool
	for _, id := range order {
		g := &c.Gates[id]
		if g.Type != netlist.Input {
			in = in[:0]
			for k, fid := range g.Fanin {
				in = append(in, val[fid])
				if v, ok := pins[pinKey{id, k}]; ok {
					in[k] = v
				}
			}
			val[id] = refBool(g.Type, in)
		}
		if v, ok := stem[id]; ok {
			val[id] = v
		}
	}
	return val
}

// refRun is refEval over every valid pattern of a block, packed back
// into one word per primary output (invalid lanes zero).
func refRun(c *netlist.Circuit, b PatternBlock, faults []Injection) []uint64 {
	words := refWords(c, b, faults)
	out := make([]uint64, len(c.Outputs))
	for o, id := range c.Outputs {
		out[o] = words[id]
	}
	return out
}

// refWords is refGates over every valid pattern of a block, packed into
// one word per gate, by gate ID (invalid lanes zero).
func refWords(c *netlist.Circuit, b PatternBlock, faults []Injection) []uint64 {
	words := make([]uint64, len(c.Gates))
	for p := 0; p < b.Count; p++ {
		pat := make(Pattern, len(b.Inputs))
		for i, w := range b.Inputs {
			pat[i] = w>>uint(p)&1 == 1
		}
		for id, v := range refGates(c, pat, faults) {
			if v {
				words[id] |= 1 << uint(p)
			}
		}
	}
	return words
}

// checkPlane fails unless every slot of fs holds the reference word of
// the gate it carries, on the valid lanes of mask.
func checkPlane(t *testing.T, f *Flat, fs *FlatSim, want []uint64, mask uint64, what string) {
	t.Helper()
	for slot := 0; slot < f.Slots(); slot++ {
		if got := fs.Value(slot) & mask; got != want[f.GateAt(slot)] {
			t.Fatalf("%s: slot %d (gate %d) holds %x, reference %x", what, slot, f.GateAt(slot), got, want[f.GateAt(slot)])
		}
	}
}

// gateSim drives a FlatSim by gate ID.
type gateSim struct {
	c    *netlist.Circuit
	flat *Flat
	fs   *FlatSim
}

func newGateSim(c *netlist.Circuit) (*gateSim, error) {
	f, err := NewFlat(c)
	if err != nil {
		return nil, err
	}
	return &gateSim{c: c, flat: f, fs: NewFlatSim(f)}, nil
}

func (s *gateSim) Run(b PatternBlock) ([]uint64, error) { return s.fs.RunInto(b, nil) }

// RunSingle simulates one pattern and returns the output bits.
func (s *gateSim) RunSingle(p Pattern) ([]bool, error) {
	b, err := PackPatterns([]Pattern{p})
	if err != nil {
		return nil, err
	}
	words, err := s.Run(b)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(words))
	for i, w := range words {
		out[i] = w&1 == 1
	}
	return out, nil
}

// RunWithFault injects one stuck-at fault: pin < 0 on the gate output,
// otherwise on that input pin.
func (s *gateSim) RunWithFault(b PatternBlock, gate, pin int, stuck bool) ([]uint64, error) {
	if gate < 0 || gate >= len(s.c.Gates) {
		return nil, fmt.Errorf("fault site %d out of range", gate)
	}
	return s.fs.RunWithFaultInto(b, s.flat.SlotOf(gate), pin, stuck, nil)
}

func (s *gateSim) RunWithFaults(b PatternBlock, faults []Injection) ([]uint64, error) {
	return s.fs.RunWithFaultsInto(b, faults, nil)
}
