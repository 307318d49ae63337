package atpg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// TestPodemMatchesReference pins the event-driven generator to the
// full-resimulation reference: the same (pattern, status) for every
// collapsed fault of several circuits — and a 150-class sample of the
// 1k-gate LSI netlist — at backtrack limits 5, 50 and the default.
// One generator serves all of a circuit's faults, so state left stale
// by an earlier fault would show as a mismatch.
func TestPodemMatchesReference(t *testing.T) {
	type workload struct {
		c      *netlist.Circuit
		sample int // 0: every collapsed class
	}
	var loads []workload
	for _, build := range []func() (*netlist.Circuit, error){
		func() (*netlist.Circuit, error) { return netlist.C17(), nil },
		func() (*netlist.Circuit, error) { return netlist.RippleAdder(8) },
		func() (*netlist.Circuit, error) { return netlist.ArrayMultiplier(8) },
		func() (*netlist.Circuit, error) { return netlist.Comparator(16) },
	} {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, workload{c: c})
	}
	if !testing.Short() {
		lsi, err := netlist.LSIChip(1000)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, workload{c: lsi, sample: 150})
	}
	for _, w := range loads {
		reps := fault.Reps(fault.BuildUniverse(w.c).Collapsed)
		if w.sample > 0 && w.sample < len(reps) {
			idx := rand.New(rand.NewSource(1981)).Perm(len(reps))[:w.sample]
			slices.Sort(idx)
			sample := make([]fault.Fault, len(idx))
			for i, k := range idx {
				sample[i] = reps[k]
			}
			reps = sample
		}
		for _, limit := range []int{5, 50, 0} {
			t.Run(fmt.Sprintf("%s/limit=%d", w.c.Name, limit), func(t *testing.T) {
				gen, err := NewPodem(w.c)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := newRefPodem(w.c)
				if err != nil {
					t.Fatal(err)
				}
				gen.BacktrackLimit, ref.BacktrackLimit = limit, limit
				var tally [3]int
				for _, f := range reps {
					got, gs := gen.Generate(f)
					want, ws := ref.Generate(f)
					if gs != ws || !slices.Equal(got, want) {
						t.Fatalf("fault %v: got (%v, %v), reference (%v, %v)", f.Name(w.c), got, gs, want, ws)
					}
					tally[gs]++
				}
				t.Logf("%d faults: %d detected, %d untestable, %d aborted", len(reps), tally[Detected], tally[Untestable], tally[Aborted])
			})
		}
	}
}
