package logicsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// eagerFlatCones is the reference cone compiler: every slot's cone
// built in one pass in ascending site order into shared growing
// arrays — the all-slots precomputation the on-demand FlatConeSet
// replaced, kept here as its oracle.
func eagerFlatCones(f *Flat) ([]FlatCone, error) {
	n := f.Slots()
	foAt, fo := f.Fanout()
	outOf := make([]int32, n)
	mark := make([]int32, n)
	seen := make([]int32, n)
	for i := range outOf {
		outOf[i], mark[i], seen[i] = -1, -1, -1
	}
	for oi, os := range f.outSlot {
		outOf[os] = int32(oi)
	}
	cones := make([]FlatCone, n)
	var queue []int32
	for site := int32(0); site < int32(n); site++ {
		cone := []int32{site}
		queue = append(queue[:0], site)
		mark[site] = site
		for len(queue) > 0 {
			slot := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, s := range fo[foAt[slot]:foAt[slot+1]] {
				if mark[s] != site {
					mark[s] = site
					cone = append(cone, s)
					queue = append(queue, s)
				}
			}
		}
		slices.Sort(cone)
		if cone[0] != site {
			return nil, fmt.Errorf("cone of slot %d does not start at the site", site)
		}
		var outIdx, outPos, prog, bnd []int32
		for pos, slot := range cone {
			if oi := outOf[slot]; oi >= 0 {
				outIdx = append(outIdx, oi)
				outPos = append(outPos, int32(pos))
			}
		}
		sortOutPair(outIdx, outPos)
		for _, slot := range cone {
			seen[slot] = site
		}
		use := func(s int32) {
			if seen[s] != site {
				seen[s] = site
				bnd = append(bnd, s)
			}
		}
		for _, slot := range cone[1:] {
			lo, hi := f.faninAt[slot], f.faninAt[slot+1]
			op := f.op[slot]
			if op <= opXnor2 {
				a := f.fanin[lo]
				b := a
				if hi-lo == 2 {
					b = f.fanin[lo+1]
				}
				prog = append(prog, int32(op), slot, a, b)
				use(a)
				use(b)
				continue
			}
			prog = append(prog, int32(op)|(hi-lo)<<8, slot)
			for _, s := range f.fanin[lo:hi] {
				use(s)
				prog = append(prog, s)
			}
		}
		cones[site] = FlatCone{Slots: cone, Outputs: outIdx, OutPos: outPos, Prog: prog, Bound: bnd}
	}
	return cones, nil
}

// TestOnDemandConesMatchEager pins the on-demand cone set to the eager
// reference: every slot's cone, compiled in a shuffled order over
// several Ensure calls, equals the eagerly compiled one field by field.
func TestOnDemandConesMatchEager(t *testing.T) {
	mul8, err := netlist.ArrayMultiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	cmp16, err := netlist.Comparator(16)
	if err != nil {
		t.Fatal(err)
	}
	lsi, err := netlist.LSIChip(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*netlist.Circuit{mul8, cmp16, lsi} {
		f, err := NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eagerFlatCones(f)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int32, f.Slots())
		for i, s := range rand.New(rand.NewSource(int64(f.Slots()))).Perm(f.Slots()) {
			order[i] = int32(s)
		}
		cs := NewFlatConeSet(f)
		for lo := 0; lo < len(order); lo += 97 {
			if err := cs.Ensure(order[lo:min(lo+97, len(order))]); err != nil {
				t.Fatal(err)
			}
		}
		total := 0
		for slot := range want {
			got, w := cs.ConeOfPtr(slot), &want[slot]
			for _, field := range []struct {
				name      string
				got, want []int32
			}{
				{"Slots", got.Slots, w.Slots},
				{"Outputs", got.Outputs, w.Outputs},
				{"OutPos", got.OutPos, w.OutPos},
				{"Prog", got.Prog, w.Prog},
				{"Bound", got.Bound, w.Bound},
			} {
				if !slices.Equal(field.got, field.want) {
					t.Fatalf("%s slot %d: on-demand %s %v, eager %v", c.Name, slot, field.name, field.got, field.want)
				}
			}
			total += len(w.Slots)
		}
		if cs.Size() != total {
			t.Errorf("%s: on-demand set reports %d memberships, eager cones hold %d", c.Name, cs.Size(), total)
		}
	}
}
