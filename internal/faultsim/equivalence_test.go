package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// TestEngineEquivalenceProperty is the cross-engine contract: every
// engine (and the full-circuit reference paths) must return identical
// FirstDetect indices on randomized circuits, randomized fault subsets,
// and randomized pattern sets. The oracle is the Serial baseline,
// itself pinned to logicsim's reference evaluator through the scalar
// fault walk it runs on (logicsim.FlatSim.RunWithFaultInto).
func TestEngineEquivalenceProperty(t *testing.T) {
	type variant struct {
		name   string
		engine Engine
		opt    Options
	}
	// Every registered engine is checked automatically (a new registry
	// entry lands here with zero test changes); the explicit extras
	// pin the full-circuit reference path and a real PPSFP worker pool
	// even on single-core hosts.
	var variants []variant
	for _, e := range Engines() {
		variants = append(variants, variant{e.String(), e, Options{}})
	}
	variants = append(variants,
		variant{"ppsfp-full", PPSFP, Options{FullCircuit: true}},
		variant{"ppsfp-workers-4", PPSFP, Options{Workers: 4}},
		variant{"ppsfp-workers-full", PPSFP, Options{Workers: 3, FullCircuit: true}},
	)
	for trial := 0; trial < 8; trial++ {
		seed := int64(trial + 1)
		rng := rand.New(rand.NewSource(seed * 977))
		var (
			c   *netlist.Circuit
			err error
		)
		// Mix structured and random circuits across trials.
		switch trial % 4 {
		case 0:
			c, err = netlist.RandomCircuit("rand", 6+rng.Intn(6), 40+rng.Intn(120), 3+rng.Intn(8), seed)
		case 1:
			c, err = netlist.ArrayMultiplier(3 + trial%3)
		case 2:
			c, err = netlist.Comparator(4 + trial%4)
		default:
			c, err = netlist.Decoder(3 + trial%3)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Randomized fault list: sometimes the full uncollapsed
		// universe, sometimes a random subset (exercises dropping and
		// PF grouping with arbitrary holes), sometimes collapsed reps.
		all := fault.AllFaults(c)
		var faults []fault.Fault
		switch trial % 3 {
		case 0:
			faults = all
		case 1:
			for _, f := range all {
				if rng.Intn(3) != 0 {
					faults = append(faults, f)
				}
			}
		default:
			faults = fault.Reps(fault.CollapseEquivalence(c, all))
		}
		// Random pattern count not aligned to the 64-pattern block size.
		npat := 30 + rng.Intn(200)
		patterns := randomPatterns(c, npat, seed*31)

		serial, err := Run(c, faults, patterns, Serial)
		if err != nil {
			t.Fatal(err)
		}
		oracle := serial.FirstDetect
		for _, v := range variants {
			got, err := RunOpts(c, faults, patterns, v.engine, v.opt)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, v.name, err)
			}
			if got.Patterns != len(patterns) {
				t.Fatalf("trial %d %s: %d patterns, want %d", trial, v.name, got.Patterns, len(patterns))
			}
			for fi := range faults {
				if got.FirstDetect[fi] != oracle[fi] {
					t.Fatalf("trial %d (%s, %d faults, %d patterns) %s: fault %v first-detect %d, oracle %d",
						trial, c.Name, len(faults), npat, v.name,
						faults[fi].Name(c), got.FirstDetect[fi], oracle[fi])
				}
			}
		}
	}
}

// TestRunStepsMatchesEngines checks the strobe-granular refinement: the
// step-level first-detect must agree across engines, and projecting a
// step index back to its pattern must reproduce the pattern-level
// first-detect.
func TestRunStepsMatchesEngines(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c, err := netlist.RandomCircuit("rs", 8, 90, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
		patterns := randomPatterns(c, 120, seed*7)
		ref, err := RunSteps(c, faults, patterns)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := Run(c, faults, patterns, Serial)
		if err != nil {
			t.Fatal(err)
		}
		nOut := len(c.Outputs)
		for fi := range faults {
			if ref.FirstDetect[fi] == NotDetected {
				if pat.FirstDetect[fi] != NotDetected {
					t.Fatalf("seed %d fault %d: steps say undetected, serial says %d", seed, fi, pat.FirstDetect[fi])
				}
				continue
			}
			if got := ref.FirstDetect[fi] / nOut; got != pat.FirstDetect[fi] {
				t.Fatalf("seed %d fault %d: step %d implies pattern %d, serial says %d",
					seed, fi, ref.FirstDetect[fi], got, pat.FirstDetect[fi])
			}
		}
		for _, v := range []struct {
			e   Engine
			opt Options
		}{{FaultParallel, Options{}}, {Serial, Options{}}, {PPSFP, Options{Workers: 3}}} {
			got, err := RunStepsOpts(c, faults, patterns, v.e, v.opt)
			if err != nil {
				t.Fatalf("%v: %v", v.e, err)
			}
			for fi := range faults {
				if got.FirstDetect[fi] != ref.FirstDetect[fi] {
					t.Fatalf("seed %d fault %d: %v %+v steps %d, ppsfp steps %d",
						seed, fi, v.e, v.opt, got.FirstDetect[fi], ref.FirstDetect[fi])
				}
			}
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, e := range Engines() {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	// Retired engine names get the unknown-engine error too.
	for _, name := range []string{"warp-drive", "pf256", "deductive", "concurrent"} {
		if _, err := ParseEngine(name); err == nil {
			t.Errorf("unknown engine name %q should error", name)
		}
	}
}

func TestRunOptsValidatesFaults(t *testing.T) {
	c := netlist.C17()
	patterns := exhaustivePatterns(c)
	bad := []fault.Fault{{Gate: len(c.Gates) + 5, Pin: -1}}
	if _, err := Run(c, bad, patterns, PPSFP); err == nil {
		t.Error("out-of-range fault site should error")
	}
	badPin := []fault.Fault{{Gate: c.Outputs[0], Pin: 99}}
	if _, err := Run(c, badPin, patterns, FaultParallel); err == nil {
		t.Error("out-of-range pin should error")
	}
}

func TestEmptyFaultList(t *testing.T) {
	c := netlist.C17()
	patterns := exhaustivePatterns(c)
	for _, e := range Engines() {
		r, err := Run(c, nil, patterns, e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if len(r.FirstDetect) != 0 || r.Patterns != len(patterns) {
			t.Fatalf("%v: unexpected result %+v", e, r)
		}
	}
}
