package logicsim

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// wideWidths is the lane-block width matrix the wide-layer property
// tests sweep: the specialized 1- and 4-word kernels, the 2-word width
// dead-lane compaction passes through, a generic stride width (5), and
// the maximum (8).
var wideWidths = []int{1, 2, 4, 5, 8}

// randomMachines builds n multi-fault machines of 1..5 random faults.
func randomMachines(c *netlist.Circuit, n int, rng *rand.Rand) [][]Injection {
	machines := make([][]Injection, n)
	for m := range machines {
		k := 1 + rng.Intn(5)
		for j := 0; j < k; j++ {
			gate := rng.Intn(len(c.Gates))
			pin := -1
			if nf := len(c.Gates[gate].Fanin); nf > 0 && rng.Intn(2) == 1 {
				pin = rng.Intn(nf)
			}
			machines[m] = append(machines[m], Injection{Gate: gate, Pin: pin, Stuck: rng.Intn(2) == 1})
		}
	}
	return machines
}

// TestWideRunLaneForcedMatchesRunWithFaults is the wide transpose
// identity: lane l of one WideSim.RunLaneForced walk must equal bit p
// of the reference simulator's pass over that lane's fault set
// (ref_test.go), for every lane-block width — including lanes beyond
// 63, which only exist in the wide layout.
func TestWideRunLaneForcedMatchesRunWithFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := netlist.RandomCircuit("r", 9, 90, 7, 23)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	block, err := PackPatterns(randomPatterns(c, 17, rng))
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range wideWidths {
		ws, err := NewWideSim(f, words)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := NewWideLaneForces(f, words)
		if err != nil {
			t.Fatal(err)
		}
		// Scatter machines across the whole lane range so every word of
		// the block carries faults; lane 0 stays good.
		var lanes []int
		for lane := 1; lane < lf.Lanes(); lane += 1 + lane/2 {
			lanes = append(lanes, lane)
		}
		last := lf.Lanes() - 1
		if lanes[len(lanes)-1] != last {
			lanes = append(lanes, last)
		}
		machines := randomMachines(c, len(lanes), rng)
		for m, lane := range lanes {
			for _, inj := range machines[m] {
				if err := lf.Add(inj, lane); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := make([][]uint64, len(machines))
		for m := range machines {
			want[m] = refRun(c, block, machines[m])
		}
		goodCopy := refRun(c, block, nil)
		var out []uint64
		for p := 0; p < block.Count; p++ {
			out, err = ws.RunLaneForced(block, p, lf, out)
			if err != nil {
				t.Fatal(err)
			}
			for o := range c.Outputs {
				ob := out[o*words : (o+1)*words]
				if got := ob[0] & 1; got != goodCopy[o]>>uint(p)&1 {
					t.Fatalf("words=%d pattern %d output %d: lane 0 bit %d, good bit %d",
						words, p, o, got, goodCopy[o]>>uint(p)&1)
				}
				for m, lane := range lanes {
					got := ob[lane>>6] >> uint(lane&63) & 1
					if got != want[m][o]>>uint(p)&1 {
						t.Fatalf("words=%d pattern %d output %d lane %d: got %d, reference %d",
							words, p, o, lane, got, want[m][o]>>uint(p)&1)
					}
				}
			}
		}
	}
}

// TestWideRunIntoMatchesSimulator pins the wide unforced walk to the
// reference simulator: up to 64*W patterns in one wide block produce
// the same output bits, for every width.
func TestWideRunIntoMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c, err := netlist.RandomCircuit("w", 8, 120, 6, 77)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range wideWidths {
		n := 64*words - rng.Intn(17) // exercise a partial last word
		patterns := randomPatterns(c, n, rng)
		wb, err := PackWidePatterns(patterns, words)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := NewWideSim(f, words)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ws.RunInto(wb, nil)
		if err != nil {
			t.Fatal(err)
		}
		for base := 0; base < n; base += 64 {
			end := base + 64
			if end > n {
				end = n
			}
			block, err := PackPatterns(patterns[base:end])
			if err != nil {
				t.Fatal(err)
			}
			want := refRun(c, block, nil)
			for o := range c.Outputs {
				for p := base; p < end; p++ {
					got := out[o*words+p>>6] >> uint(p&63) & 1
					if got != want[o]>>uint(p-base)&1 {
						t.Fatalf("words=%d output %d pattern %d: wide %d, reference %d",
							words, o, p, got, want[o]>>uint(p-base)&1)
					}
				}
			}
		}
	}
}

// TestEvalSlotsForcedMatchesFullWalk pins the subset walk the
// fault-parallel engine runs
// over union cones to the full forced walk: evaluating *all* slots via
// EvalSlotsForced (inputs re-broadcast from the good machine) must
// leave the same value plane as RunLaneForced.
func TestEvalSlotsForcedMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c, err := netlist.RandomCircuit("e", 7, 70, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	good := NewFlatSim(f)
	block, err := PackPatterns(randomPatterns(c, 32, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.RunInto(block, nil); err != nil {
		t.Fatal(err)
	}
	allSlots := make([]int32, f.Slots())
	for i := range allSlots {
		allSlots[i] = int32(i)
	}
	for _, words := range wideWidths {
		full, err := NewWideSim(f, words)
		if err != nil {
			t.Fatal(err)
		}
		subset, err := NewWideSim(f, words)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := NewWideLaneForces(f, words)
		if err != nil {
			t.Fatal(err)
		}
		machines := randomMachines(c, 3, rng)
		for m := range machines {
			lane := 1 + m*(lf.Lanes()-2)/2 // lanes 1, middle, last
			for _, inj := range machines[m] {
				if err := lf.Add(inj, lane); err != nil {
					t.Fatal(err)
				}
			}
		}
		for p := 0; p < block.Count; p += 7 {
			if _, err := full.RunLaneForced(block, p, lf, nil); err != nil {
				t.Fatal(err)
			}
			if err := subset.EvalSlotsForced(good, p, allSlots, lf); err != nil {
				t.Fatal(err)
			}
			for slot := 0; slot < f.Slots(); slot++ {
				fw, sw := full.ValueWords(slot), subset.ValueWords(slot)
				for k := 0; k < words; k++ {
					if fw[k] != sw[k] {
						t.Fatalf("words=%d pattern %d slot %d word %d: full %x, subset %x",
							words, p, slot, k, fw[k], sw[k])
					}
				}
			}
		}
	}
}

func TestWideLaneForcesLastValueWins(t *testing.T) {
	c := netlist.C17()
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	g22, _ := c.GateByName("22")
	block, err := PackPatterns(randomPatterns(c, 8, rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWideSim(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewWideLaneForces(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Both polarities on one lane: the second Add wins, same as a chip's
	// ordered fault list under the reference simulator.
	const lane = 200
	if err := lf.Add(Injection{Gate: g22, Pin: -1, Stuck: true}, lane); err != nil {
		t.Fatal(err)
	}
	if err := lf.Add(Injection{Gate: g22, Pin: -1, Stuck: false}, lane); err != nil {
		t.Fatal(err)
	}
	want := refRun(c, block, []Injection{
		{Gate: g22, Pin: -1, Stuck: true},
		{Gate: g22, Pin: -1, Stuck: false},
	})
	for p := 0; p < block.Count; p++ {
		out, err := ws.RunLaneForced(block, p, lf, nil)
		if err != nil {
			t.Fatal(err)
		}
		for o := range c.Outputs {
			got := out[o*4+lane>>6] >> uint(lane&63) & 1
			if got != want[o]>>uint(p)&1 {
				t.Fatalf("pattern %d output %d: lane %d bit %d, want %d", p, o, lane, got, want[o]>>uint(p)&1)
			}
		}
	}
}

// TestWideRunLaneForcedZeroAllocs pins the steady-state wide walk —
// the chip-parallel lot engine's inner loop — to zero allocations per
// pattern.
func TestWideRunLaneForcedZeroAllocs(t *testing.T) {
	c, err := netlist.RandomCircuit("a", 10, 200, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWideSim(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewWideLaneForces(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for m, machine := range randomMachines(c, 40, rng) {
		for _, inj := range machine {
			if err := lf.Add(inj, m+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	block, err := PackPatterns(randomPatterns(c, 64, rng))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 0, len(c.Outputs)*4)
	// Warm once so the staging scratch reaches its high-water mark.
	if out, err = ws.RunLaneForced(block, 0, lf, out); err != nil {
		t.Fatal(err)
	}
	p := 0
	if allocs := testing.AllocsPerRun(50, func() {
		var err error
		out, err = ws.RunLaneForced(block, p%block.Count, lf, out)
		if err != nil {
			t.Fatal(err)
		}
		p++
	}); allocs != 0 {
		t.Errorf("WideSim.RunLaneForced allocates %v per run, want 0", allocs)
	}
}

func TestPackWidePatternsRoundTrip(t *testing.T) {
	c := netlist.C17()
	rng := rand.New(rand.NewSource(6))
	patterns := randomPatterns(c, 300, rng)
	wb, err := PackWidePatterns(patterns, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wb.Count != 300 || wb.Words != 8 {
		t.Fatalf("packed shape %d/%d", wb.Count, wb.Words)
	}
	for p, pat := range patterns {
		for i, v := range pat {
			got := wb.Inputs[i*8+p>>6]>>uint(p&63)&1 == 1
			if got != v {
				t.Fatalf("pattern %d input %d: packed %v, want %v", p, i, got, v)
			}
		}
	}
	mask := wb.MaskInto(nil)
	set := 0
	for _, w := range mask {
		for ; w != 0; w &= w - 1 {
			set++
		}
	}
	if len(mask) != 8 || set != 300 {
		t.Fatalf("mask has %d bits over %d words, want 300 over 8", set, len(mask))
	}
}

// TestWidenBlock checks the PatternBlock→WidePatternBlock conversion:
// patterns land in word 0 of every input's lane block, padding lanes
// stay zero, and word counts outside 1..MaxLaneWords are rejected with
// the named ErrLaneWords — the regression for shape mistakes that
// previously surfaced as opaque walk errors.
func TestWidenBlock(t *testing.T) {
	c := netlist.C17()
	rng := rand.New(rand.NewSource(4))
	patterns := randomPatterns(c, 23, rng)
	b, err := PackPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	want := refRun(c, b, nil)
	for _, words := range []int{1, 3, 8} {
		wb, err := WidenBlock(b, words)
		if err != nil {
			t.Fatalf("words=%d: %v", words, err)
		}
		if wb.Count != b.Count || wb.Words != words {
			t.Fatalf("words=%d: widened shape %d/%d", words, wb.Count, wb.Words)
		}
		for i, w := range b.Inputs {
			if wb.Inputs[i*words] != w {
				t.Fatalf("words=%d input %d: word 0 is %x, want %x", words, i, wb.Inputs[i*words], w)
			}
			for k := 1; k < words; k++ {
				if wb.Inputs[i*words+k] != 0 {
					t.Fatalf("words=%d input %d: padding word %d not zero", words, i, k)
				}
			}
		}
		// The widened block simulates identically to the 64-lane one.
		ws, err := NewWideSim(f, words)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ws.RunInto(wb, nil)
		if err != nil {
			t.Fatal(err)
		}
		mask := b.Mask()
		for o := range want {
			if out[o*words]&mask != want[o] {
				t.Fatalf("words=%d output %d: widened %x, reference %x", words, o, out[o*words]&mask, want[o])
			}
		}
	}
	for _, words := range []int{0, -2, 9} {
		if _, err := WidenBlock(b, words); !errors.Is(err, ErrLaneWords) {
			t.Errorf("WidenBlock(%d words) error %v, want ErrLaneWords", words, err)
		}
	}
	if _, err := WidenBlock(PatternBlock{}, 4); err == nil {
		t.Error("zero-value PatternBlock accepted")
	}
	// The other wide-layer entry points wrap the same sentinel.
	if _, err := NewWideSim(f, 9); !errors.Is(err, ErrLaneWords) {
		t.Errorf("NewWideSim(9 words) error %v, want ErrLaneWords", err)
	}
	if _, err := NewWideLaneForces(f, 0); !errors.Is(err, ErrLaneWords) {
		t.Errorf("NewWideLaneForces(0 words) error %v, want ErrLaneWords", err)
	}
}

// TestWideLaneForcesResetKeepsLaneBounds is the compaction regression:
// an epoch Reset must empty the table without enlarging it, so a
// narrow (re-packed) table still rejects lane indices surviving from a
// wider layout.
func TestWideLaneForcesResetKeepsLaneBounds(t *testing.T) {
	c := netlist.C17()
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewWideLaneForces(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lf.Lanes() != 64 {
		t.Fatalf("1-word table has %d lanes", lf.Lanes())
	}
	if err := lf.Add(Injection{Gate: 0, Pin: -1, Stuck: true}, 63); err != nil {
		t.Fatal(err)
	}
	if err := lf.Add(Injection{Gate: 0, Pin: -1, Stuck: true}, 64); err == nil {
		t.Error("lane 64 accepted by a 1-word table")
	}
	lf.Reset()
	if err := lf.Add(Injection{Gate: 0, Pin: -1, Stuck: true}, 64); err == nil {
		t.Error("lane 64 accepted by a 1-word table after Reset")
	}
	if err := lf.Add(Injection{Gate: 0, Pin: -1, Stuck: true}, 63); err != nil {
		t.Errorf("in-range lane rejected after Reset: %v", err)
	}
}

// TestWideSetWordsReStrides checks the compaction path of the lot
// engine: one simulator and one forcing table built at 4 words,
// re-strided down and back up, walk exactly like fresh ones of each
// width, and neither accepts a width beyond the one it was built for.
func TestWideSetWordsReStrides(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c, err := netlist.RandomCircuit("s", 9, 90, 7, 29)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	block, err := PackPatterns(randomPatterns(c, 9, rng))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWideSim(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewWideLaneForces(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{4, 1, 2, 1, 4} {
		if err := ws.SetWords(words); err != nil {
			t.Fatal(err)
		}
		if err := lf.SetWords(words); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewWideSim(f, words)
		if err != nil {
			t.Fatal(err)
		}
		freshLf, err := NewWideLaneForces(f, words)
		if err != nil {
			t.Fatal(err)
		}
		for m, machine := range randomMachines(c, 64*words-1, rng) {
			for _, inj := range machine {
				if err := lf.Add(inj, m+1); err != nil {
					t.Fatal(err)
				}
				if err := freshLf.Add(inj, m+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		for p := 0; p < block.Count; p++ {
			got, err := ws.RunLaneForced(block, p, lf, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.RunLaneForced(block, p, freshLf, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("words=%d pattern %d: re-strided walk differs from a fresh one", words, p)
			}
		}
	}
	if err := ws.SetWords(5); !errors.Is(err, ErrLaneWords) {
		t.Errorf("WideSim.SetWords past the built width: %v, want ErrLaneWords", err)
	}
	if err := lf.SetWords(5); !errors.Is(err, ErrLaneWords) {
		t.Errorf("WideLaneForces.SetWords past the built width: %v, want ErrLaneWords", err)
	}
}

func TestWideValidationErrors(t *testing.T) {
	c := netlist.C17()
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{0, -1, 9} {
		if _, err := NewWideSim(f, words); err == nil {
			t.Errorf("NewWideSim accepted %d words", words)
		}
		if _, err := NewWideLaneForces(f, words); err == nil {
			t.Errorf("NewWideLaneForces accepted %d words", words)
		}
		if _, err := PackWidePatterns(randomPatterns(c, 4, rand.New(rand.NewSource(1))), words); err == nil {
			t.Errorf("PackWidePatterns accepted %d words", words)
		}
	}
	ws, err := NewWideSim(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-value and malformed wide blocks are rejected like their
	// 64-lane counterparts.
	if _, err := ws.RunInto(WidePatternBlock{}, nil); err == nil {
		t.Error("zero-value WidePatternBlock accepted")
	}
	if _, err := ws.RunInto(WidePatternBlock{Inputs: make([]uint64, 5*4), Words: 4, Count: 257}, nil); err == nil {
		t.Error("oversized Count accepted")
	}
	if _, err := ws.RunInto(WidePatternBlock{Inputs: make([]uint64, 5*2), Words: 2, Count: 10}, nil); err == nil {
		t.Error("width-mismatched wide block accepted")
	}
	// Lane and shape checks on the forcing table.
	lf, err := NewWideLaneForces(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Add(Injection{Gate: 0, Pin: -1}, 256); err == nil {
		t.Error("out-of-range lane accepted")
	}
	if err := lf.Add(Injection{Gate: len(c.Gates), Pin: -1}, 1); err == nil {
		t.Error("out-of-range site accepted")
	}
	lf2, err := NewWideLaneForces(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	block, err := PackPatterns(randomPatterns(c, 4, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.RunLaneForced(block, 0, lf2, nil); err == nil {
		t.Error("shape-mismatched forcing table accepted")
	}
	if _, err := ws.RunLaneForced(block, 9, lf, nil); err == nil {
		t.Error("out-of-range pattern accepted")
	}
}
