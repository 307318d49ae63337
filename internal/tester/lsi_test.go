package tester_test

import (
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/tester"
)

// TestChipParallelLSIEscapesMatchSerial pins the LSI regime the event
// walk exists for: a sampled fault universe over the 1k-gate fixture,
// weighted towards faults the program detects late or never, so most
// defective chips escape and walk every block of a program that is not
// a multiple of 64 patterns, each chip's faults disturbing a few
// percent of the circuit.
func TestChipParallelLSIEscapesMatchSerial(t *testing.T) {
	c, err := circuits.Resolve("lsi1k")
	if err != nil {
		t.Fatal(err)
	}
	full := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 1000)
	if err != nil {
		t.Fatal(err)
	}
	patterns := atpg.Take(src, 100)
	res, err := faultsim.Run(c, full, patterns, faultsim.PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	// A 150-class sample: 120 classes the program detects after its
	// first block or never, 30 it detects early.
	rng := rand.New(rand.NewSource(1000))
	var late, early []fault.Fault
	for _, fi := range rng.Perm(len(full)) {
		if d := res.FirstDetect[fi]; d == faultsim.NotDetected || d >= 64 {
			late = append(late, full[fi])
		} else {
			early = append(early, full[fi])
		}
	}
	if len(late) < 120 || len(early) < 30 {
		t.Fatalf("%d late and %d early classes: too few to sample", len(late), len(early))
	}
	universe := append(late[:120:120], early[:30]...)
	lot, err := defect.GenerateLotFromModel(0.3, 2, universe, 1200, rng)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := tester.NewEngine(c, patterns, tester.Serial)
	if err != nil {
		t.Fatal(err)
	}
	par, err := tester.New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	for _, steps := range []bool{false, true} {
		run := (*tester.ATE).TestLot
		if steps {
			run = (*tester.ATE).TestLotSteps
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
		if defective := len(lot.Chips) - int(want.TrueYield*float64(len(lot.Chips))+0.5); 2*want.Escapes <= defective {
			t.Errorf("%d of %d defective chips escape: want most", want.Escapes, defective)
		}
	}
}
