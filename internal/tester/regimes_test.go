package tester

import (
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// sameFirstFail runs the lot through the serial oracle and the
// chip-parallel engine at both granularities and compares FirstFail
// chip by chip, returning the chip-parallel ATE for inspection.
func sameFirstFail(t *testing.T, c *netlist.Circuit, patterns []logicsim.Pattern, lot defect.Lot) *ATE {
	t.Helper()
	serial, err := NewEngine(c, patterns, Serial)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(c, patterns, ChipParallel)
	if err != nil {
		t.Fatal(err)
	}
	for _, steps := range []bool{false, true} {
		run := (*ATE).TestLot
		if steps {
			run = (*ATE).TestLotSteps
		}
		want, err := run(serial, lot)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(par, lot)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.FirstFail {
			if got.FirstFail[i] != want.FirstFail[i] {
				t.Fatalf("steps=%v chip %d (faults %v): chip-parallel first fail %d, serial %d",
					steps, i, lot.Chips[i].Faults, got.FirstFail[i], want.FirstFail[i])
			}
		}
	}
	return par
}

// TestChipParallelDenseFallbackMatchesSerial pins the regime where a
// batch's faults disturb most of a small circuit: on mul8 a 255-chip
// batch switches to the full walk for the rest of its chunk, and the
// first fails must not notice.
func TestChipParallelDenseFallbackMatchesSerial(t *testing.T) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 88)
	if err != nil {
		t.Fatal(err)
	}
	patterns := atpg.Take(src, 192)
	lot, err := defect.GenerateLotFromModel(0.07, 8.8, universe, 800, rand.New(rand.NewSource(88)))
	if err != nil {
		t.Fatal(err)
	}
	par := sameFirstFail(t, c, patterns, lot)
	if par.pp.dense == 0 {
		t.Error("no pattern took the full walk: the dense regime went untested")
	}
}

// TestChipParallelPartialBlockMatchesSerial pins a program whose length
// is not a multiple of 64, with escapes that walk it to the end: the
// last chunk is a partial block, so its good machine and pattern
// indexing run on a block of fewer than 64 patterns.
func TestChipParallelPartialBlockMatchesSerial(t *testing.T) {
	c, err := netlist.RandomCircuit("partial", 16, 200, 4, 18)
	if err != nil {
		t.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 18)
	if err != nil {
		t.Fatal(err)
	}
	patterns := atpg.Take(src, 150)
	lot, err := defect.GenerateLotFromModel(0.2, 2, universe, 600, rand.New(rand.NewSource(18)))
	if err != nil {
		t.Fatal(err)
	}
	par := sameFirstFail(t, c, patterns, lot)
	got, err := par.TestLot(lot)
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, ff := range got.FirstFail {
		if ff >= 128 {
			late++
		}
	}
	if got.Escapes == 0 || late == 0 {
		t.Errorf("%d escapes, %d fails in the partial block: want both, so the block is walked and tested", got.Escapes, late)
	}
}
