package logicsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// TestFlatConeSetMatchesConeSet pins the slot cones to the gate cones:
// same membership (modulo the slot↔gate mapping), same reachable
// outputs, slots ascending with the site first.
func TestFlatConeSetMatchesConeSet(t *testing.T) {
	circuits := []*netlist.Circuit{netlist.C17()}
	for seed := int64(1); seed <= 3; seed++ {
		c, err := netlist.RandomCircuit("r", 7, 70, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		cs, err := NewConeSet(c)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		fcs := NewFlatConeSet(f)
		for gate := range c.Gates {
			slot := f.SlotOf(gate)
			fc := fcs.ConeOf(slot)
			gc := cs.Cone(gate)
			if len(fc.Slots) != len(gc.Gates) {
				t.Fatalf("%s gate %d: flat cone %d slots, gate cone %d gates", c.Name, gate, len(fc.Slots), len(gc.Gates))
			}
			if fc.Slots[0] != int32(slot) {
				t.Fatalf("%s gate %d: cone does not start at the site slot", c.Name, gate)
			}
			in := make(map[int]bool, len(gc.Gates))
			for _, g := range gc.Gates {
				in[g] = true
			}
			for i, s := range fc.Slots {
				if i > 0 && fc.Slots[i-1] >= s {
					t.Fatalf("%s gate %d: cone slots not ascending", c.Name, gate)
				}
				if !in[f.GateAt(int(s))] {
					t.Fatalf("%s gate %d: slot %d (gate %d) not in the gate cone", c.Name, gate, s, f.GateAt(int(s)))
				}
			}
			if len(fc.Outputs) != len(gc.Outputs) || len(fc.OutPos) != len(fc.Outputs) {
				t.Fatalf("%s gate %d: output lists disagree", c.Name, gate)
			}
			for j, oi := range fc.Outputs {
				if int(oi) != gc.Outputs[j] {
					t.Fatalf("%s gate %d: output %d is %d, gate cone says %d", c.Name, gate, j, oi, gc.Outputs[j])
				}
				if got := int(fc.Slots[fc.OutPos[j]]); got != f.SlotOf(c.Outputs[oi]) {
					t.Fatalf("%s gate %d: OutPos[%d] points at slot %d, output %d lives at slot %d",
						c.Name, gate, j, got, oi, f.SlotOf(c.Outputs[oi]))
				}
			}
		}
		// ConeOf compiled every slot's cone on demand.
		if fcs.Size() != cs.Size() {
			t.Fatalf("%s: flat cone set size %d, gate cone set size %d", c.Name, fcs.Size(), cs.Size())
		}
	}
}

// TestRunConeMatchesReference is the core flat-cone correctness
// property: for every fault site, pin, and polarity, the flat cone walk
// must return the per-output diffs of the reference simulator's faulty
// and good machines (ref_test.go), and their union as the diff word.
// The good machine must survive every cone walk untouched.
func TestRunConeMatchesReference(t *testing.T) {
	circuits := []*netlist.Circuit{netlist.C17()}
	for seed := int64(4); seed <= 5; seed++ {
		c, err := netlist.RandomCircuit("r", 8, 80, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		f, err := NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		fcs := NewFlatConeSet(f)
		fs := NewFlatSim(f)
		block := randomBlock(t, c, 1+int(int64(len(c.Gates))%64), int64(len(c.Gates)))
		if _, err := fs.RunInto(block, nil); err != nil {
			t.Fatal(err)
		}
		good := refRun(c, block, nil)
		goodPlane := refWords(c, block, nil)
		checkPlane(t, f, fs, goodPlane, block.Mask(), c.Name+" good machine")
		gotDiffs := make([]uint64, len(c.Outputs))
		for gate, g := range c.Gates {
			slot := f.SlotOf(gate)
			cone := fcs.ConeOf(slot)
			for pin := -1; pin < len(g.Fanin); pin++ {
				for _, stuck := range []bool{false, true} {
					bad := refRun(c, block, []Injection{{Gate: gate, Pin: pin, Stuck: stuck}})
					var want uint64
					for o := range bad {
						want |= bad[o] ^ good[o]
					}
					var got uint64
					var err error
					if pin < 0 {
						got, err = fs.RunCone(slot, stuck, &cone, gotDiffs)
					} else {
						got, err = fs.RunConeForced(slot, pin, stuck, &cone, gotDiffs)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s gate %d pin %d stuck %v: flat diff %x, reference %x",
							c.Name, gate, pin, stuck, got, want)
					}
					for _, oi := range cone.Outputs {
						if w := bad[oi] ^ good[oi]; gotDiffs[oi] != w {
							t.Fatalf("%s gate %d pin %d stuck %v: output %d flat diff %x, reference %x",
								c.Name, gate, pin, stuck, oi, gotDiffs[oi], w)
						}
					}
					// The walk must leave every slot of the good machine
					// as it found it.
					checkPlane(t, f, fs, goodPlane, block.Mask(),
						fmt.Sprintf("%s after gate %d pin %d stuck %v", c.Name, gate, pin, stuck))
				}
			}
		}
	}
}

// TestRunWithFaultIntoMatchesSimulator pins the scalar flat fault walk
// (the faultsim Serial baseline) to the reference simulator.
func TestRunWithFaultIntoMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		c, err := netlist.RandomCircuit("r", 6+rng.Intn(5), 40+rng.Intn(80), 3+rng.Intn(5), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFlatSim(f)
		block := randomBlock(t, c, 1+rng.Intn(64), rng.Int63())
		var out []uint64
		for gate, g := range c.Gates {
			for pin := -1; pin < len(g.Fanin); pin++ {
				stuck := rng.Intn(2) == 1
				want := refRun(c, block, []Injection{{Gate: gate, Pin: pin, Stuck: stuck}})
				out, err = fs.RunWithFaultInto(block, f.SlotOf(gate), pin, stuck, out)
				if err != nil {
					t.Fatal(err)
				}
				mask := block.Mask()
				for o := range want {
					if want[o] != out[o]&mask {
						t.Fatalf("trial %d gate %d pin %d: output %d flat %x, reference %x",
							trial, gate, pin, o, out[o]&mask, want[o])
					}
				}
			}
		}
	}
}

// TestRunConeZeroAllocs pins the steady-state flat cone walk — the
// PPSFP inner loop — to zero allocations per fault.
func TestRunConeZeroAllocs(t *testing.T) {
	c, err := netlist.RandomCircuit("a", 10, 200, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	fcs := NewFlatConeSet(f)
	fs := NewFlatSim(f)
	block, err := PackPatterns(randomPatterns(c, 64, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.RunInto(block, nil); err != nil {
		t.Fatal(err)
	}
	outDiffs := make([]uint64, len(c.Outputs))
	// Compile every cone up front: the steady state is a walk over
	// cones a session has already ensured.
	every := make([]int32, f.Slots())
	for i := range every {
		every[i] = int32(i)
	}
	if err := fcs.Ensure(every); err != nil {
		t.Fatal(err)
	}
	// Warm once so the save/restore scratch reaches its high-water mark.
	if _, err := fs.RunCone(f.NumInputs(), true, conePtr(fcs.ConeOf(f.NumInputs())), outDiffs); err != nil {
		t.Fatal(err)
	}
	slot := 0
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := fs.RunCone(slot%f.Slots(), slot%2 == 0, conePtr(fcs.ConeOf(slot%f.Slots())), outDiffs); err != nil {
			t.Fatal(err)
		}
		slot++
	}); allocs != 0 {
		t.Errorf("FlatSim.RunCone allocates %v per run, want 0", allocs)
	}
	pinSlot := f.NumInputs() // first logic slot always has a pin 0
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := fs.RunConeForced(pinSlot, 0, true, conePtr(fcs.ConeOf(pinSlot)), nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("FlatSim.RunConeForced allocates %v per run, want 0", allocs)
	}
}

// TestFlatConeErrors exercises the cone-walk validation paths.
func TestFlatConeErrors(t *testing.T) {
	c := netlist.C17()
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	fcs := NewFlatConeSet(f)
	fs := NewFlatSim(f)
	// A cone walk without a preceding good run must be rejected, not
	// silently report every fault undetected.
	if _, err := fs.RunCone(0, true, conePtr(fcs.ConeOf(0)), nil); err == nil {
		t.Error("cone walk without a preceding RunInto accepted")
	}
	block := randomBlock(t, c, 8, 1)
	if _, err := fs.RunInto(block, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.RunCone(-1, false, conePtr(fcs.ConeOf(0)), nil); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := fs.RunCone(1, false, conePtr(fcs.ConeOf(0)), nil); err == nil {
		t.Error("mismatched cone accepted")
	}
	logic := f.NumInputs()
	if _, err := fs.RunConeForced(logic, 99, false, conePtr(fcs.ConeOf(logic)), nil); err == nil {
		t.Error("bad pin accepted")
	}
	if _, err := fs.RunWithFaultInto(block, 0, 0, false, nil); err == nil {
		t.Error("pin fault on a primary input accepted")
	}
	if _, err := fs.RunWithFaultInto(block, -1, -1, false, nil); err == nil {
		t.Error("out-of-range fault slot accepted")
	}
	if err := fcs.Ensure([]int32{int32(f.Slots())}); err == nil {
		t.Error("Ensure accepted an out-of-range slot")
	}
	// An unbuilt cone is empty, and the walks reject it.
	if _, err := fs.RunCone(logic, false, NewFlatConeSet(f).ConeOfPtr(logic), nil); err == nil {
		t.Error("walk over an unbuilt cone accepted")
	}
}

// TestFlatConeSetForCachesAndInvalidates checks the third member of the
// simCaches bundle obeys the one invalidation rule: cached alongside
// the Flat and ConeSet, dropped with them on any mutation.
func TestFlatConeSetForCachesAndInvalidates(t *testing.T) {
	c := netlist.C17()
	cs1, err := FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs1 != cs2 {
		t.Error("FlatConeSetFor rebuilt on second call")
	}
	// The slot cones build over (and share) the cached Flat.
	f, err := FlatFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs1.Flat() != f {
		t.Error("slot cones built over a different Flat than the cached one")
	}
	if _, err := c.AddGate("extra", netlist.Not, "22"); err != nil {
		t.Fatal(err)
	}
	cs3, err := FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs3 == cs1 {
		t.Error("mutation did not invalidate the slot cones")
	}
}

// TestReleaseFlatCones: the release drops only the cone set. A holder
// keeps its cones, the Flat stays cached, the next FlatConeSetFor
// starts empty over that same Flat and compiles identical cones, and
// releasing a circuit with no caches is a no-op.
func TestReleaseFlatCones(t *testing.T) {
	ReleaseFlatCones(netlist.C17())
	c := netlist.C17()
	cs1, err := FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	want := cs1.ConeOf(0)
	ReleaseFlatCones(c)
	if got := cs1.ConeOf(0); len(got.Slots) != len(want.Slots) || cs1.Size() == 0 {
		t.Error("release emptied a set a caller still holds")
	}
	cs2, err := FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs2 == cs1 || cs2.Size() != 0 {
		t.Fatalf("after release: same set %v, %d memberships; want a fresh empty set", cs2 == cs1, cs2.Size())
	}
	if cs2.Flat() != cs1.Flat() {
		t.Error("release dropped the cached Flat")
	}
	if got := cs2.ConeOf(0); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rebuilt cone %v differs from the released one %v", got, want)
	}
}

// conePtr lets test call sites pass an rvalue cone by address.
func conePtr(c FlatCone) *FlatCone { return &c }
