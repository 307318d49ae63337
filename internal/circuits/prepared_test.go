package circuits

import (
	"testing"

	"repro/internal/logicsim"
)

// TestSampledPrepareCompilesOnlySiteCones checks that a sampled Prepare
// pays for the output cones of its own fault sites and nothing else:
// every site's cone is compiled (looking one up compiles nothing new),
// and the compiled memberships are exactly those cones'. Prepare
// releases the circuit's cone set when it returns, so the test takes
// the set first: Prepare's sessions then compile into the set the test
// holds. It also checks the release: afterwards the circuit hands out a
// fresh, empty set.
func TestSampledPrepareCompilesOnlySiteCones(t *testing.T) {
	c, err := Resolve("lsi1k")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := logicsim.FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(c, Params{RandomPatterns: 48, Seed: 7, SampleFaults: 150, BacktrackLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := logicsim.FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == cs || fresh.Size() != 0 {
		t.Fatalf("Prepare kept the circuit's cone set alive (same set %v, %d memberships)", fresh == cs, fresh.Size())
	}
	built := cs.Size()
	flat := cs.Flat()
	site := make([]bool, flat.Slots())
	want := 0
	for _, f := range pr.Universe {
		slot := flat.SlotOf(f.Gate)
		if !site[slot] {
			site[slot] = true
			want += len(cs.ConeOf(slot).Slots)
		}
	}
	if after := cs.Size(); after != built {
		t.Fatalf("looking up the sites' cones compiled %d more memberships: Prepare skipped a fault site", after-built)
	}
	if built != want {
		t.Fatalf("Prepare compiled %d cone memberships, its fault sites need %d", built, want)
	}
	all := logicsim.NewFlatConeSet(flat)
	every := make([]int32, flat.Slots())
	for i := range every {
		every[i] = int32(i)
	}
	if err := all.Ensure(every); err != nil {
		t.Fatal(err)
	}
	if built*4 > all.Size() {
		t.Errorf("sampled Prepare built %d of %d memberships; sampling should leave most cones unbuilt", built, all.Size())
	}
}
