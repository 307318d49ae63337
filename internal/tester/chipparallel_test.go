package tester

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/defect"
)

// TestPP256BuildRejectsOverfullBatch is the compaction guard: a batch
// whose lanes do not fit the forcing table's width must be rejected
// with the named ErrBatchLanes instead of a lane-range error deep in
// the walk — the invariant a re-packed batch relies on.
func TestPP256BuildRejectsOverfullBatch(t *testing.T) {
	c, universe, patterns := setup(t)
	a, err := NewEngine(c, patterns, ChipParallel)
	if err != nil {
		t.Fatal(err)
	}
	lot := defect.Lot{
		Universe: universe,
		Chips:    make([]defect.Chip, 64),
	}
	// Warm the engine scratch so ppBuild can be driven directly.
	if _, err := a.chipParallelFirstFail(lot, false); err != nil {
		t.Fatal(err)
	}
	resolved, _, err := a.resolvedUniverse(universe)
	if err != nil {
		t.Fatal(err)
	}
	// Narrow the table to one word, as a compaction would.
	if err := a.pp.setWords(1); err != nil {
		t.Fatal(err)
	}
	batch := make([]ppItem, 64) // 64 chips + good machine > 64 lanes
	alive := make([]uint64, 1)
	if err := a.ppBuild(lot, resolved, batch, alive); !errors.Is(err, ErrBatchLanes) {
		t.Errorf("overfull batch error %v, want ErrBatchLanes", err)
	}
	if err := a.ppBuild(lot, resolved, batch[:63], alive); err != nil {
		t.Errorf("full batch rejected: %v", err)
	}
}

// TestPP256CompactionMatchesSerial forces the dead-lane compaction path
// hard — a shallow, wide-fanout circuit where most chips die within the
// first patterns — and pins the compacted engine to the serial oracle
// at both granularities.
func TestPP256CompactionMatchesSerial(t *testing.T) {
	c, universe, patterns := setup(t)
	rng := rand.New(rand.NewSource(256))
	// Very low yield: full 255-chip batches that thin out fast, walking
	// the 4→2→1 width ladder repeatedly across the chunk schedule.
	lot, err := defect.GenerateLotFromModel(0.02, 6, universe, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewEngine(c, patterns, Serial)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewEngine(c, patterns, ChipParallel)
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
		got, err := run(wide, lot)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("steps=%v: compacted engine disagrees with serial", steps)
		}
	}
}

// TestPP256BatchZeroAllocs pins the compacted batch step — the 256-lane
// chip-parallel inner loop, including the width ladder — to zero
// allocations once the engine scratch is warm.
func TestPP256BatchZeroAllocs(t *testing.T) {
	c, universe, patterns := setup(t)
	a, err := NewEngine(c, patterns, ChipParallel)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	lot, err := defect.GenerateLotFromModel(0.05, 5, universe, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	// One full run warms the walk state, the forcing table and the
	// high-water marks of the output and survivor buffers.
	ff, err := a.chipParallelFirstFail(lot, false)
	if err != nil {
		t.Fatal(err)
	}
	resolved, _, err := a.resolvedUniverse(universe)
	if err != nil {
		t.Fatal(err)
	}
	var batch []ppItem
	for i, chip := range lot.Chips {
		if chip.Defective() {
			batch = append(batch, ppItem{chip: int32(i), key: int32(chip.Faults[0])})
		}
		if len(batch) == ppLanes {
			break
		}
	}
	if len(batch) < 130 {
		t.Fatalf("only %d defective chips; want enough to start multi-word", len(batch))
	}
	scratch := make([]ppItem, len(batch))
	next := make([]ppItem, 0, len(batch))
	// A chunk never leaves its block: walk the first block against its
	// good machine.
	if _, err := a.pp.good.RunInto(a.blocks[0], nil); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		copy(scratch, batch) // the batch is compacted in place; re-seed it
		var err error
		next, err = a.ppBatch(lot, resolved, scratch, 0, 64, false, ff, next[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ppBatch allocates %v per run, want 0", allocs)
	}
}

// TestWarmLotAllocatesOnlyResult pins the per-lot allocation budget of
// the default engine: once an ATE has tested a lot, every further lot
// over the same universe allocates only its result (the FirstFail
// slice) — not the lane state, the forcing table, the resolved
// universe or the scheduler's buffers. Each lot is measured on its
// own, since amortized growth would hide inside an average.
func TestWarmLotAllocatesOnlyResult(t *testing.T) {
	c, universe, patterns := setup(t)
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	// The warm-up lot reaches the scheduler's high-water marks (every
	// chip defective) while touching only three fault sites, so forcing
	// table entries for the rest of the universe must already exist.
	warm := defect.Lot{Universe: universe, Chips: make([]defect.Chip, 500)}
	for i := range warm.Chips {
		warm.Chips[i].Faults = []int{i % 3}
	}
	if _, err := a.TestLotSteps(warm); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10; i++ {
		lot, err := defect.GenerateLotFromModel(0.1, 5, universe, 500, rng)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = a.TestLotSteps(lot)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := after.Mallocs - before.Mallocs; allocs != 1 {
			t.Errorf("lot %d allocates %d times, want 1 (the result)", i, allocs)
		}
	}
}
