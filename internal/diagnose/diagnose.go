// Package diagnose implements fault-dictionary diagnosis, the LAMP-era
// companion workflow to fault simulation: pre-compute every fault's
// full tester response (which outputs fail on which patterns), then
// locate a failing chip's defect by matching its observed syndrome
// against the dictionary. The paper's experiment records only the
// first failing pattern; the dictionary shows how much more the same
// tester run can reveal.
package diagnose

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// Syndrome is a chip's observed failure signature: for each pattern,
// a bitmask of failing outputs (bit o set = output o mismatched).
// A passing pattern has mask 0.
type Syndrome []uint64

// Fails reports whether any pattern failed.
func (s Syndrome) Fails() bool {
	for _, m := range s {
		if m != 0 {
			return true
		}
	}
	return false
}

// FirstFail returns the first failing pattern index, or -1.
func (s Syndrome) FirstFail() int {
	for i, m := range s {
		if m != 0 {
			return i
		}
	}
	return -1
}

// distance returns the Hamming-like distance between syndromes: the
// number of (pattern, output) cells where they disagree.
func distance(a, b Syndrome) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := 0
	for i := 0; i < n; i++ {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	for i := n; i < len(a); i++ {
		d += bits.OnesCount64(a[i])
	}
	for i := n; i < len(b); i++ {
		d += bits.OnesCount64(b[i])
	}
	return d
}

// Dictionary holds the precomputed response of every modelled fault.
type Dictionary struct {
	c         *netlist.Circuit
	flat      *logicsim.Flat
	patterns  []logicsim.Pattern
	blocks    []logicsim.PatternBlock // patterns, packed 64 per block
	faults    []fault.Fault
	syndromes []Syndrome
}

// Build fault-simulates every fault against the ordered pattern set
// and stores full response signatures. Cost is one faulty-machine
// simulation per fault (64 patterns per pass), so it is run once per
// test program release.
func Build(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) (*Dictionary, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("diagnose: no patterns")
	}
	if len(c.Outputs) > 64 {
		return nil, fmt.Errorf("diagnose: more than 64 outputs (%d) does not fit the syndrome mask", len(c.Outputs))
	}
	flat, err := logicsim.NewFlat(c)
	if err != nil {
		return nil, err
	}
	d := &Dictionary{c: c, flat: flat, patterns: patterns, faults: faults,
		syndromes: make([]Syndrome, len(faults))}
	for base := 0; base < len(patterns); base += 64 {
		block, err := logicsim.PackPatterns(patterns[base:min(base+64, len(patterns))])
		if err != nil {
			return nil, err
		}
		d.blocks = append(d.blocks, block)
	}
	for i := range d.syndromes {
		d.syndromes[i] = make(Syndrome, len(patterns))
	}
	sim := logicsim.NewFlatSim(flat)
	var good, bad []uint64
	for bi, block := range d.blocks {
		if good, err = sim.RunInto(block, good); err != nil {
			return nil, err
		}
		for fi, f := range faults {
			if f.Gate < 0 || f.Gate >= len(c.Gates) {
				return nil, fmt.Errorf("diagnose: fault %d site %d out of range", fi, f.Gate)
			}
			if bad, err = sim.RunWithFaultInto(block, flat.SlotOf(f.Gate), f.Pin, f.Stuck, bad); err != nil {
				return nil, err
			}
			d.syndromes[fi].record(bi*64, block.Mask(), good, bad)
		}
	}
	return d, nil
}

// record marks, for patterns base.. of one block, the outputs on which
// the bad machine's words differ from the good machine's.
func (s Syndrome) record(base int, mask uint64, good, bad []uint64) {
	for o := range bad {
		diff := (bad[o] ^ good[o]) & mask
		for diff != 0 {
			s[base+bits.TrailingZeros64(diff)] |= 1 << uint(o)
			diff &= diff - 1
		}
	}
}

// ObserveChip runs the tester on a chip carrying the given faults
// simultaneously and returns its syndrome — the input a real ATE's
// datalog would provide.
func (d *Dictionary) ObserveChip(inj []logicsim.Injection) (Syndrome, error) {
	sim := logicsim.NewFlatSim(d.flat)
	syn := make(Syndrome, len(d.patterns))
	var good, bad []uint64
	for bi, block := range d.blocks {
		var err error
		if good, err = sim.RunInto(block, good); err != nil {
			return nil, err
		}
		if bad, err = sim.RunWithFaultsInto(block, inj, bad); err != nil {
			return nil, err
		}
		syn.record(bi*64, block.Mask(), good, bad)
	}
	return syn, nil
}

// Candidate is one diagnosis result.
type Candidate struct {
	Fault    fault.Fault
	Distance int // syndrome distance; 0 = exact match
}

// Diagnose ranks the modelled faults by syndrome distance to the
// observation and returns the best `limit` candidates (all exact
// matches are always included).
func (d *Dictionary) Diagnose(observed Syndrome, limit int) []Candidate {
	cands := make([]Candidate, len(d.faults))
	for i := range d.faults {
		cands[i] = Candidate{Fault: d.faults[i], Distance: distance(observed, d.syndromes[i])}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Distance != cands[b].Distance {
			return cands[a].Distance < cands[b].Distance
		}
		// Deterministic tie-break.
		fa, fb := cands[a].Fault, cands[b].Fault
		if fa.Gate != fb.Gate {
			return fa.Gate < fb.Gate
		}
		if fa.Pin != fb.Pin {
			return fa.Pin < fb.Pin
		}
		return !fa.Stuck && fb.Stuck
	})
	if limit <= 0 || limit > len(cands) {
		limit = len(cands)
	}
	// Extend past the limit to keep all exact matches.
	for limit < len(cands) && cands[limit].Distance == 0 {
		limit++
	}
	return cands[:limit]
}

// Resolution reports how well the dictionary separates faults: the
// number of syndrome-equivalence classes and the largest class size.
// Faults in one class are indistinguishable by this pattern set.
func (d *Dictionary) Resolution() (classes, largest int) {
	byKey := make(map[string][]int)
	for i, syn := range d.syndromes {
		key := syndromeKey(syn)
		byKey[key] = append(byKey[key], i)
	}
	for _, members := range byKey {
		if len(members) > largest {
			largest = len(members)
		}
	}
	return len(byKey), largest
}

// syndromeKey builds a compact string key for grouping.
func syndromeKey(s Syndrome) string {
	b := make([]byte, 0, len(s)*8)
	for _, w := range s {
		for k := 0; k < 8; k++ {
			b = append(b, byte(w>>uint(8*k)))
		}
	}
	return string(b)
}
