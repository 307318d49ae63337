package faultsim

import (
	"runtime"
	"slices"
	"sync"
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

// TestConcurrentSessionsShareCones runs two sessions at once on one
// shared circuit, each sharding PPSFP over 4 workers: while one
// session's workers walk cones of the circuit's shared set, the other
// compiles the cones of its own fault sites into it. Under -race this
// guards the on-demand cone set's publication rule; either way both
// sessions must match the Serial baseline.
func TestConcurrentSessionsShareCones(t *testing.T) {
	build := func() *netlist.Circuit {
		c, err := netlist.LSIChip(300)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Levelize(); err != nil { // share only levelized circuits
			t.Fatal(err)
		}
		return c
	}
	ref := build()
	reps := fault.Reps(fault.CollapseEquivalence(ref, fault.AllFaults(ref)))
	var halves [2][]fault.Fault
	for i, f := range reps {
		halves[i%2] = append(halves[i%2], f)
	}
	patterns := randomPatterns(ref, 130, 5)
	var want [2]Result
	for h := range halves {
		var err error
		if want[h], err = Run(ref, halves[h], patterns, Serial); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		c := build() // a fresh circuit: an empty cone set to race on
		var got [2]Result
		var errs [2]error
		var wg sync.WaitGroup
		for h := range halves {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				got[h], errs[h] = RunOpts(c, halves[h], patterns, PPSFP, Options{Workers: 4})
			}(h)
		}
		wg.Wait()
		for h := range halves {
			if errs[h] != nil {
				t.Fatal(errs[h])
			}
			if !slices.Equal(got[h].FirstDetect, want[h].FirstDetect) {
				t.Fatalf("round %d session %d: first-detects differ from Serial", round, h)
			}
		}
	}
}
