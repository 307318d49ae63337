package fault

import (
	"strings"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

func TestAllFaultsCount(t *testing.T) {
	c := netlist.C17()
	all := AllFaults(c)
	// 11 gates * 2 output faults + (6 NAND gates * 2 pins) * 2 = 22 + 24.
	if len(all) != 46 {
		t.Errorf("c17 full universe = %d, want 46", len(all))
	}
	seen := make(map[Fault]bool)
	for _, f := range all {
		if seen[f] {
			t.Fatalf("duplicate fault %v", f)
		}
		seen[f] = true
	}
}

func TestFaultString(t *testing.T) {
	c := netlist.C17()
	f := Fault{Gate: 0, Pin: -1, Stuck: true}
	if !strings.Contains(f.String(), "s-a-1") {
		t.Error("String missing value")
	}
	if !strings.Contains(f.Name(c), "s-a-1") {
		t.Error("Name missing value")
	}
	g16, _ := c.GateByName("16")
	fb := Fault{Gate: g16, Pin: 1, Stuck: false}
	if !strings.Contains(fb.Name(c), "in1") || !strings.Contains(fb.Name(c), "11") {
		t.Errorf("branch Name = %q", fb.Name(c))
	}
}

// detectionVector computes, by brute force over all input patterns (the
// circuit must have few inputs), the set of patterns detecting each
// fault. Bit p of the result is set iff pattern p detects the fault.
func detectionVector(t *testing.T, c *netlist.Circuit, f Fault) uint64 {
	t.Helper()
	if len(c.Inputs) > 6 {
		t.Fatal("detectionVector needs <= 6 inputs")
	}
	n := 1 << len(c.Inputs)
	patterns := make([]logicsim.Pattern, n)
	for v := 0; v < n; v++ {
		p := make(logicsim.Pattern, len(c.Inputs))
		for i := range p {
			p[i] = v>>i&1 == 1
		}
		patterns[v] = p
	}
	flat, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	sim := logicsim.NewFlatSim(flat)
	block, err := logicsim.PackPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	goodCopy, err := sim.RunInto(block, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sim.RunWithFaultInto(block, flat.SlotOf(f.Gate), f.Pin, f.Stuck, nil)
	if err != nil {
		t.Fatal(err)
	}
	var diff uint64
	for o := range bad {
		diff |= (bad[o] ^ goodCopy[o]) & block.Mask()
	}
	return diff
}

// circuitsForCollapsing returns small circuits covering every gate type
// and fanout structure.
func circuitsForCollapsing(t *testing.T) []*netlist.Circuit {
	t.Helper()
	var out []*netlist.Circuit
	out = append(out, netlist.C17())
	rca, err := netlist.RippleAdder(1)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, rca)
	cmp, err := netlist.Comparator(2) // XNOR coverage
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, cmp)
	mux, err := netlist.MuxTree(1) // NOT + AND + OR
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mux)
	rnd, err := netlist.RandomCircuit("rnd6", 5, 20, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, rnd)
	return out
}

func TestEquivalenceClassesShareDetection(t *testing.T) {
	// The defining property of fault equivalence: every member of a
	// class is detected by exactly the same patterns. Verified by
	// exhaustive simulation.
	for _, c := range circuitsForCollapsing(t) {
		u := BuildUniverse(c)
		for _, cl := range u.Collapsed {
			want := detectionVector(t, c, cl.Members[0])
			for _, f := range cl.Members[1:] {
				if got := detectionVector(t, c, f); got != want {
					t.Errorf("%s: class of %v: member %v detection %b != %b",
						c.Name, cl.Rep.Name(c), f.Name(c), got, want)
				}
			}
		}
	}
}

func TestCollapsePreservesFaultSet(t *testing.T) {
	// Equivalence collapsing partitions the universe: every fault in
	// exactly one class.
	for _, c := range circuitsForCollapsing(t) {
		u := BuildUniverse(c)
		seen := make(map[Fault]int)
		for _, cl := range u.Collapsed {
			for _, f := range cl.Members {
				seen[f]++
			}
		}
		if len(seen) != len(u.All) {
			t.Errorf("%s: classes cover %d faults, universe has %d", c.Name, len(seen), len(u.All))
		}
		for f, n := range seen {
			if n != 1 {
				t.Errorf("%s: fault %v in %d classes", c.Name, f, n)
			}
		}
	}
}

func TestCollapseRatio(t *testing.T) {
	// Folklore: equivalence collapsing removes roughly 40-60% of the
	// universe on gate-level circuits. Check a sane reduction happens
	// and dominance removes more.
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	u := BuildUniverse(c)
	if len(u.Collapsed) >= len(u.All) {
		t.Errorf("equivalence collapsing did nothing: %d vs %d", len(u.Collapsed), len(u.All))
	}
	ratio := float64(len(u.Collapsed)) / float64(len(u.All))
	if ratio > 0.8 || ratio < 0.2 {
		t.Errorf("collapse ratio %v outside sane range", ratio)
	}
	if len(u.Checkable) >= len(u.Collapsed) {
		t.Errorf("dominance collapsing did nothing: %d vs %d", len(u.Checkable), len(u.Collapsed))
	}
}

func TestDominanceDroppedAreDominated(t *testing.T) {
	// For every class dropped by dominance collapsing there must be a
	// kept class whose every detecting pattern also detects the dropped
	// one (and which is detectable at all).
	for _, c := range circuitsForCollapsing(t) {
		u := BuildUniverse(c)
		keptSet := make(map[Fault]bool)
		for _, cl := range u.Checkable {
			keptSet[cl.Rep] = true
		}
		var droppedClasses []Class
		for _, cl := range u.Collapsed {
			if !keptSet[cl.Rep] {
				droppedClasses = append(droppedClasses, cl)
			}
		}
		for _, dc := range droppedClasses {
			dropVec := detectionVector(t, c, dc.Rep)
			if dropVec == 0 {
				continue // fault is redundant: dropping it loses nothing
			}
			dominated := false
			for _, kc := range u.Checkable {
				keepVec := detectionVector(t, c, kc.Rep)
				if keepVec != 0 && keepVec&^dropVec == 0 {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Errorf("%s: dropped class %v is not dominated by any kept class",
					c.Name, dc.Rep.Name(c))
			}
		}
	}
}

func TestRepsDeterministic(t *testing.T) {
	c := netlist.C17()
	a := BuildUniverse(c)
	b := BuildUniverse(c)
	ra, rb := Reps(a.Collapsed), Reps(b.Collapsed)
	if len(ra) != len(rb) {
		t.Fatal("nondeterministic class count")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("nondeterministic representatives")
		}
	}
}

func TestC17CollapsedSize(t *testing.T) {
	// c17's collapsed fault list is a classic textbook number: the
	// 46-fault universe collapses to 24 equivalence classes... our
	// universe also carries branch faults on single-fanout nets (merged
	// by rule 1), so just pin the exact values for regression.
	u := BuildUniverse(netlist.C17())
	if len(u.All) != 46 {
		t.Errorf("universe %d", len(u.All))
	}
	if len(u.Collapsed) < 20 || len(u.Collapsed) > 30 {
		t.Errorf("collapsed %d outside expected band", len(u.Collapsed))
	}
	t.Logf("c17: %d all, %d collapsed, %d after dominance",
		len(u.All), len(u.Collapsed), len(u.Checkable))
}

func BenchmarkBuildUniverse(b *testing.B) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildUniverse(c)
	}
}
