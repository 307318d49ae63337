package faultsim

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// TestRunConcurrentMatchesSerial pins PPSFP sharded over a worker pool
// (Options.Workers) to the Serial baseline, across pool sizes that
// leave shards uneven or exceed what the fault list can fill.
func TestRunConcurrentMatchesSerial(t *testing.T) {
	c, err := netlist.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	patterns := randomPatterns(c, 150, 7)
	serial, err := Run(c, faults, patterns, Serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 9} {
		conc, err := RunOpts(c, faults, patterns, PPSFP, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if conc.Patterns != serial.Patterns {
			t.Fatalf("workers=%d: pattern count", workers)
		}
		for fi := range faults {
			if conc.FirstDetect[fi] != serial.FirstDetect[fi] {
				t.Fatalf("workers=%d fault %d: %d vs %d",
					workers, fi, conc.FirstDetect[fi], serial.FirstDetect[fi])
			}
		}
	}
}

func TestRunConcurrentRace(t *testing.T) {
	// Exercised under -race in CI: shards never write overlapping
	// indices; this test just pushes enough work through to catch any
	// accidental sharing.
	c, err := netlist.RippleAdder(6)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	patterns := randomPatterns(c, 200, 3)
	for round := 0; round < 3; round++ {
		if _, err := RunOpts(c, faults, patterns, PPSFP, Options{Workers: 8}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunConcurrentErrors(t *testing.T) {
	c := netlist.C17()
	faults := fault.AllFaults(c)
	if _, err := RunOpts(c, faults, nil, PPSFP, Options{Workers: 4}); err == nil {
		t.Error("no patterns should error")
	}
}

func BenchmarkPPSFPWorkersMul8(b *testing.B) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)
	patterns := randomPatterns(c, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOpts(c, reps, patterns, PPSFP, Options{Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}
