// Package fault defines the single-stuck-at fault universe over a
// gate-level circuit and implements structural fault collapsing
// (equivalence and dominance), the standard reductions every fault
// simulator and ATPG front-end applies.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
)

// Fault is a single stuck-at fault. Pin = -1 places the fault on the
// gate's output (the stem); Pin >= 0 places it on that input pin of the
// gate (the fanout branch feeding this gate only).
type Fault struct {
	Gate  int  // gate ID
	Pin   int  // -1 = output stem, >= 0 = input pin index
	Stuck bool // stuck value: false = stuck-at-0, true = stuck-at-1
}

// String renders the fault with the circuit's gate names, e.g.
// "16/in1 s-a-1" or "22 s-a-0".
func (f Fault) String() string {
	v := 0
	if f.Stuck {
		v = 1
	}
	if f.Pin < 0 {
		return fmt.Sprintf("g%d s-a-%d", f.Gate, v)
	}
	return fmt.Sprintf("g%d/in%d s-a-%d", f.Gate, f.Pin, v)
}

// Name renders the fault using gate names from the circuit.
func (f Fault) Name(c *netlist.Circuit) string {
	v := 0
	if f.Stuck {
		v = 1
	}
	g := c.Gates[f.Gate]
	if f.Pin < 0 {
		return fmt.Sprintf("%s s-a-%d", g.Name, v)
	}
	return fmt.Sprintf("%s/in%d(%s) s-a-%d", g.Name, f.Pin, c.Gates[g.Fanin[f.Pin]].Name, v)
}

// AllFaults enumerates the complete single-stuck-at universe: two
// faults on every gate output and two on every gate input pin. This is
// the uncollapsed list N that fault coverage f = m/N is measured
// against before collapsing.
func AllFaults(c *netlist.Circuit) []Fault {
	var out []Fault
	for _, g := range c.Gates {
		out = append(out,
			Fault{Gate: g.ID, Pin: -1, Stuck: false},
			Fault{Gate: g.ID, Pin: -1, Stuck: true})
		for pin := range g.Fanin {
			out = append(out,
				Fault{Gate: g.ID, Pin: pin, Stuck: false},
				Fault{Gate: g.ID, Pin: pin, Stuck: true})
		}
	}
	return out
}

// Class is an equivalence class of faults: every member is detected by
// exactly the same test patterns. Rep is the canonical representative
// used for simulation.
type Class struct {
	Rep     Fault
	Members []Fault
}

// union-find over fault indices.
type dsu struct{ parent []int }

func newDSU(n int) *dsu {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &dsu{parent: p}
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) { d.parent[d.find(a)] = d.find(b) }

// faultKey indexes faults for the DSU.
type faultKey struct {
	gate, pin int
	stuck     bool
}

// CollapseEquivalence partitions the full fault universe into
// equivalence classes using the structural rules:
//
//  1. A single-fanout net has one line: the driver's output fault is
//     equivalent to the (sole) receiver's input-pin fault of the same
//     value.
//  2. Controlling-value collapse inside gates:
//     AND:  any input s-a-0 ≡ output s-a-0
//     NAND: any input s-a-0 ≡ output s-a-1
//     OR:   any input s-a-1 ≡ output s-a-1
//     NOR:  any input s-a-1 ≡ output s-a-0
//     BUF:  input s-a-v ≡ output s-a-v
//     NOT:  input s-a-v ≡ output s-a-(1-v)
//
// XOR/XNOR gates admit no structural equivalence.
func CollapseEquivalence(c *netlist.Circuit, faults []Fault) []Class {
	index := make(map[faultKey]int, len(faults))
	for i, f := range faults {
		index[faultKey{f.Gate, f.Pin, f.Stuck}] = i
	}
	lookup := func(gate, pin int, stuck bool) (int, bool) {
		i, ok := index[faultKey{gate, pin, stuck}]
		return i, ok
	}
	d := newDSU(len(faults))
	for _, g := range c.Gates {
		// Rule 1: single-fanout stem ≡ branch.
		if len(g.Fanout) == 1 {
			recv := g.Fanout[0]
			for pin, fin := range c.Gates[recv].Fanin {
				if fin != g.ID {
					continue
				}
				for _, stuck := range []bool{false, true} {
					a, okA := lookup(g.ID, -1, stuck)
					b, okB := lookup(recv, pin, stuck)
					if okA && okB {
						d.union(a, b)
					}
				}
			}
		}
		// Rule 2: controlling-value collapse.
		var inStuck, outStuck bool
		var applies bool
		switch g.Type {
		case netlist.And:
			inStuck, outStuck, applies = false, false, true
		case netlist.Nand:
			inStuck, outStuck, applies = false, true, true
		case netlist.Or:
			inStuck, outStuck, applies = true, true, true
		case netlist.Nor:
			inStuck, outStuck, applies = true, false, true
		}
		if applies {
			out, okOut := lookup(g.ID, -1, outStuck)
			if okOut {
				for pin := range g.Fanin {
					if in, ok := lookup(g.ID, pin, inStuck); ok {
						d.union(in, out)
					}
				}
			}
		}
		if g.Type == netlist.Buf || g.Type == netlist.Not {
			inv := g.Type == netlist.Not
			for _, stuck := range []bool{false, true} {
				in, okIn := lookup(g.ID, 0, stuck)
				out, okOut := lookup(g.ID, -1, stuck != inv)
				if okIn && okOut {
					d.union(in, out)
				}
			}
		}
	}
	// Gather classes; representative = the stem fault closest to the
	// inputs (lowest gate ID with Pin = -1), else the lowest-indexed
	// member. Deterministic by construction.
	groups := make(map[int][]int)
	for i := range faults {
		r := d.find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	//repolint:ordered — key harvest; the roots are sorted before use
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	classes := make([]Class, 0, len(groups))
	for _, r := range roots {
		idxs := groups[r]
		sort.Ints(idxs)
		cl := Class{Members: make([]Fault, len(idxs))}
		repIdx := idxs[0]
		for j, i := range idxs {
			cl.Members[j] = faults[i]
			if faults[i].Pin < 0 && (faults[repIdx].Pin >= 0 || faults[i].Gate < faults[repIdx].Gate) {
				repIdx = i
			}
		}
		cl.Rep = faults[repIdx]
		classes = append(classes, cl)
	}
	return classes
}

// CollapseDominance removes classes that are dominated by a kept class:
// for a gate with a controlling input value, the output fault at the
// non-controlled value is detected by every test for any input fault at
// the controlling-complement value, so the output fault class can be
// dropped. Rules (value on the right is the dropped output fault):
//
//	AND:  output s-a-1 dominated by any input s-a-1
//	NAND: output s-a-0 dominated by any input s-a-1
//	OR:   output s-a-0 dominated by any input s-a-0
//	NOR:  output s-a-1 dominated by any input s-a-0
//
// Gates with a single input pin (BUF/NOT) are fully handled by
// equivalence. Classes containing any primary-output stem fault are
// never dropped (dominance holds, but keeping them preserves the
// convention that PO faults stay explicit in reports).
func CollapseDominance(c *netlist.Circuit, classes []Class) []Class {
	poStem := make(map[int]bool)
	for _, o := range c.Outputs {
		poStem[o] = true
	}
	// Map each fault to its class index.
	where := make(map[faultKey]int)
	for ci, cl := range classes {
		for _, f := range cl.Members {
			where[faultKey{f.Gate, f.Pin, f.Stuck}] = ci
		}
	}
	dropped := make([]bool, len(classes))
	for _, g := range c.Gates {
		var inStuck, outStuck bool
		switch g.Type {
		case netlist.And:
			inStuck, outStuck = true, true
		case netlist.Nand:
			inStuck, outStuck = true, false
		case netlist.Or:
			inStuck, outStuck = false, false
		case netlist.Nor:
			inStuck, outStuck = false, true
		default:
			continue
		}
		if len(g.Fanin) < 2 {
			continue
		}
		outCi, ok := where[faultKey{g.ID, -1, outStuck}]
		if !ok {
			continue
		}
		// The dominating input faults must survive in other classes.
		dominatorExists := false
		for pin := range g.Fanin {
			if ci, ok := where[faultKey{g.ID, pin, inStuck}]; ok && ci != outCi && !dropped[ci] {
				dominatorExists = true
				break
			}
		}
		if !dominatorExists {
			continue
		}
		// Never drop a class that contains a primary-output stem fault.
		containsPO := false
		for _, f := range classes[outCi].Members {
			if f.Pin < 0 && poStem[f.Gate] {
				containsPO = true
				break
			}
		}
		if !containsPO {
			dropped[outCi] = true
		}
	}
	kept := make([]Class, 0, len(classes))
	for i, cl := range classes {
		if !dropped[i] {
			kept = append(kept, cl)
		}
	}
	return kept
}

// Universe bundles the fault list views of one circuit.
type Universe struct {
	All       []Fault // complete uncollapsed list
	Collapsed []Class // equivalence classes
	Checkable []Class // after dominance collapsing
}

// BuildUniverse computes all three views.
func BuildUniverse(c *netlist.Circuit) Universe {
	all := AllFaults(c)
	eq := CollapseEquivalence(c, all)
	dom := CollapseDominance(c, eq)
	return Universe{All: all, Collapsed: eq, Checkable: dom}
}

// Reps returns the representative faults of the classes.
func Reps(classes []Class) []Fault {
	out := make([]Fault, len(classes))
	for i, cl := range classes {
		out[i] = cl.Rep
	}
	return out
}
