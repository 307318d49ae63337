package logicsim

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// eventCase is a random circuit, a pattern block and the multi-fault
// machines the event-kernel tests force onto lanes (machine i onto
// lane i+1).
type eventCase struct {
	c        *netlist.Circuit
	f        *Flat
	block    PatternBlock
	machines [][]Injection
}

// newEventCase builds a random circuit with a block of count patterns
// and n random machines, every fourth opening with a stem fault on a
// primary input so forced inputs are always among the seeds.
func newEventCase(t *testing.T, rng *rand.Rand, count, n int) eventCase {
	t.Helper()
	c, err := netlist.RandomCircuit("ev", 6+rng.Intn(6), 60+rng.Intn(140), 3+rng.Intn(6), rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	block, err := PackPatterns(randomPatterns(c, count, rng))
	if err != nil {
		t.Fatal(err)
	}
	machines := randomMachines(c, n, rng)
	for m := 0; m < n; m += 4 {
		pi := Injection{Gate: c.Inputs[rng.Intn(len(c.Inputs))], Pin: -1, Stuck: rng.Intn(2) == 1}
		machines[m] = append([]Injection{pi}, machines[m]...)
	}
	return eventCase{c: c, f: f, block: block, machines: machines}
}

// TestRunLaneEventsMatchesRunLaneForced pins the event kernel to the
// full walk: on every alive lane (and lane 0, the unforced good
// machine) each output must equal RunLaneForced's. The sweep covers
// widths 1–4 reached by re-striding simulators built at 4 words (as a
// compacting lot engine does), stem faults on primary inputs, pin
// forces, two faults on one site — same lane with both polarities and
// different lanes — random alive masks whose dead lanes carry faults
// and diverge, and patterns at both edges of full and partial blocks,
// applied in sequence on one simulator so no state leaks between
// patterns.
func TestRunLaneEventsMatchesRunLaneForced(t *testing.T) {
	rng := rand.New(rand.NewSource(1515))
	for trial := 0; trial < 24; trial++ {
		count := 64
		if trial%3 == 2 {
			count = 1 + rng.Intn(63)
		}
		words := 1 + trial%4
		ec := newEventCase(t, rng, count, 64*words-1)
		full, err := NewWideSim(ec.f, 4)
		if err != nil {
			t.Fatal(err)
		}
		event, err := NewWideSim(ec.f, 4)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := NewWideLaneForces(ec.f, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*WideSim{full, event} {
			if err := s.SetWords(words); err != nil {
				t.Fatal(err)
			}
		}
		if err := lf.SetWords(words); err != nil {
			t.Fatal(err)
		}
		// Each lane carries its machine with probability 3/4, so some
		// lanes stay good; every fifth forced lane doubles a site.
		for m, machine := range ec.machines {
			lane := m + 1
			if rng.Intn(4) == 0 {
				continue
			}
			for _, inj := range machine {
				if err := lf.Add(inj, lane); err != nil {
					t.Fatal(err)
				}
			}
			if m%5 == 0 {
				twin := machine[0]
				twin.Stuck = !twin.Stuck
				if err := lf.Add(twin, lane); err != nil {
					t.Fatal(err)
				}
				if err := lf.Add(machine[0], 1+rng.Intn(64*words-1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		good := NewFlatSim(ec.f)
		if _, err := good.RunInto(ec.block, nil); err != nil {
			t.Fatal(err)
		}
		alive := make([]uint64, words)
		patterns := []int{0, ec.block.Count - 1}
		for i := 0; i < 10; i++ {
			patterns = append(patterns, rng.Intn(ec.block.Count))
		}
		var want, got []uint64
		for i, p := range patterns {
			for k := range alive {
				alive[k] = rng.Uint64()
				if i%4 == 3 {
					alive[k] &= rng.Uint64() // sparser: most lanes dead
				}
			}
			alive[0] &^= 1
			if want, err = full.RunLaneForced(ec.block, p, lf, want); err != nil {
				t.Fatal(err)
			}
			if got, _, err = event.RunLaneEvents(good, p, lf, alive, got); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d output words, full walk %d", trial, len(got), len(want))
			}
			for o := range ec.c.Outputs {
				for k := 0; k < words; k++ {
					check := alive[k]
					if k == 0 {
						check |= 1
					}
					if d := (got[o*words+k] ^ want[o*words+k]) & check; d != 0 {
						t.Fatalf("trial %d words=%d pattern %d output %d word %d: lanes %#x differ from the full walk",
							trial, words, p, o, k, d)
					}
				}
			}
		}
	}
}

// TestRunLaneEventsCountsDisturbance checks the evaluation count: a
// table with no forces evaluates nothing and returns the good machine
// on every lane, and a forced table evaluates at least its sites.
func TestRunLaneEventsCountsDisturbance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ec := newEventCase(t, rng, 64, 20)
	ws, err := NewWideSim(ec.f, 2)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewWideLaneForces(ec.f, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := NewFlatSim(ec.f)
	goodOut, err := good.RunInto(ec.block, nil)
	if err != nil {
		t.Fatal(err)
	}
	alive := []uint64{^uint64(1), ^uint64(0)}
	out, n, err := ws.RunLaneEvents(good, 5, lf, alive, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("empty table evaluated %d slots, want 0", n)
	}
	for o := range ec.c.Outputs {
		b := -(goodOut[o] >> 5 & 1)
		if out[2*o] != b || out[2*o+1] != b {
			t.Fatalf("empty table: output %d is not the good machine broadcast", o)
		}
	}
	for m, machine := range ec.machines {
		for _, inj := range machine {
			if err := lf.Add(inj, m+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, n, err = ws.RunLaneEvents(good, 5, lf, alive, out); err != nil {
		t.Fatal(err)
	}
	if n < len(lf.live) {
		t.Errorf("evaluated %d slots, fewer than the %d forced sites", n, len(lf.live))
	}
	lf.Reset()
	if len(lf.live) != 0 {
		t.Errorf("Reset left %d live sites", len(lf.live))
	}
}

// TestRunLaneEventsRejectsMismatches covers the kernel's shape checks:
// a good machine over another circuit, a pattern outside the good
// machine's block, and an alive mask of the wrong width.
func TestRunLaneEventsRejectsMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ec := newEventCase(t, rng, 40, 4)
	other := newEventCase(t, rng, 40, 4)
	ws, err := NewWideSim(ec.f, 1)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewWideLaneForces(ec.f, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := NewFlatSim(ec.f)
	if _, err := good.RunInto(ec.block, nil); err != nil {
		t.Fatal(err)
	}
	alien := NewFlatSim(other.f)
	if _, err := alien.RunInto(other.block, nil); err != nil {
		t.Fatal(err)
	}
	alive := []uint64{^uint64(1)}
	if _, _, err := ws.RunLaneEvents(alien, 0, lf, alive, nil); err == nil {
		t.Error("good machine over another circuit accepted")
	}
	for _, p := range []int{-1, 40, 64} {
		if _, _, err := ws.RunLaneEvents(good, p, lf, alive, nil); err == nil {
			t.Errorf("pattern %d outside a 40-pattern block accepted", p)
		}
	}
	if _, _, err := ws.RunLaneEvents(good, 0, lf, []uint64{1, 1}, nil); err == nil {
		t.Error("2-word alive mask on a 1-word walk accepted")
	}
	if _, _, err := ws.RunLaneEvents(good, 39, lf, alive, nil); err != nil {
		t.Errorf("last pattern of the block rejected: %v", err)
	}
}

// TestRunLaneEventsZeroAllocs pins the warm event kernel — the
// chip-parallel lot engine's inner loop — to zero allocations per
// pattern.
func TestRunLaneEventsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ec := newEventCase(t, rng, 64, 255)
	ws, err := NewWideSim(ec.f, 4)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewWideLaneForces(ec.f, 4)
	if err != nil {
		t.Fatal(err)
	}
	for m, machine := range ec.machines {
		for _, inj := range machine {
			if err := lf.Add(inj, m+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	good := NewFlatSim(ec.f)
	if _, err := good.RunInto(ec.block, nil); err != nil {
		t.Fatal(err)
	}
	alive := []uint64{^uint64(1), ^uint64(0), ^uint64(0), ^uint64(0)}
	out := make([]uint64, 0, len(ec.c.Outputs)*4)
	// Warm once so the event scratch is built.
	if out, _, err = ws.RunLaneEvents(good, 0, lf, alive, out); err != nil {
		t.Fatal(err)
	}
	p := 0
	if allocs := testing.AllocsPerRun(50, func() {
		var err error
		out, _, err = ws.RunLaneEvents(good, p%64, lf, alive, out)
		if err != nil {
			t.Fatal(err)
		}
		p++
	}); allocs != 0 {
		t.Errorf("WideSim.RunLaneEvents allocates %v per run, want 0", allocs)
	}
}
