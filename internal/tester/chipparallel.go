package tester

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/defect"
	"repro/internal/logicsim"
)

// The chip-parallel lot engine transposes the ATE's word layout: where
// the serial oracle packs 64 patterns into a word and walks the circuit
// once per (chip, block), chip-parallel puts the good machine (lane 0)
// plus up to 255 defective chips into the bit-lanes of a 4-word lane
// block and simulates the whole batch once per pattern. Each chip's
// faults are forced onto its lane through a shared
// logicsim.WideLaneForces table — v = (v &^ care) | force per fault
// site.
//
// Each pattern propagates differences from the good machine
// (logicsim.WideSim.RunLaneEvents) instead of walking the circuit: a
// 64-lane FlatSim holds the good machine of the block being applied,
// and only the batch's forced sites and the fanout of gates that differ
// from it on a live lane are evaluated. On an LSI circuit whose chips
// carry a few faults each, that is a few percent of the gates. On a
// small circuit a batch's faults can disturb most of it, where the full
// walk (RunLaneForced) is cheaper: once one pattern evaluates more than
// half the slots, the batch takes the full walk for the rest of its
// chunk, and its survivors start event-driven again in the next one.
//
// First-fail extraction is exact at either granularity: at pattern p
// the lane block of each primary output is diffed against the
// broadcast of lane 0 (the good machine, which no fault touches),
// outputs in strobe order, so the first differing (pattern, output)
// pair per lane is the same strobe the serial oracle reports. A lane is
// dropped the moment its chip fails, and a batch exits as soon as every
// lane has failed.
//
// Scheduling is what makes the lanes earn their keep:
//
//   - Patterns are processed in chunks of 8, 8, 16, 32, then 64: each
//     chunk doubles the patterns applied so far until it is a whole
//     block, so every chunk lies inside one 64-pattern block and one
//     good-machine simulation of that block serves every batch of the
//     chunk. After each chunk the survivors of *all* batches are
//     re-packed into fresh full batches for the next. Most defective
//     chips fail within the first few patterns, so without re-packing a
//     batch would idle most of its lanes while its slowest chip (or an
//     escape) walks the rest of the program.
//   - Within a round, surviving chips are ordered by their lowest
//     fault-universe index: chips with overlapping fault sites fail at
//     correlated times, so neighbours tend to die in the same chunk and
//     lanes stay packed.
//   - Within a batch, dead lanes are compacted: a batch starts at the
//     narrowest width that holds its lanes and, whenever the survivors
//     fit in at most half the current words, re-packs them into the low
//     lanes of a narrower block (the walk state and forcing table are
//     re-strided in place). Shallow circuits kill most of a batch in the
//     first few patterns, so the steady state collapses to the 1-word
//     scalar kernel (logicsim wide1.go) while the opening patterns still
//     retire 255 chips per walk.
//   - The forcing table is rebuilt over the survivors once three
//     quarters of the lanes it was built for have died: dead lanes'
//     forces seed evaluations and slow the walk down.
//
// The ordering affects only scheduling, never results.

const (
	// ppWords is the lane-block width a batch *starts* at (before
	// compaction narrows it): 4 words = 256 lanes.
	ppWords = 4
	// ppLanes is the number of chip lanes per batch (lane 0 is the good
	// machine).
	ppLanes = 64*ppWords - 1
	// ppChunkStart/ppChunkMax bound the pattern-chunk schedule: small
	// early chunks keep dead-lane waste low while the lot is failing
	// fast, and the cap of one block keeps every chunk inside the block
	// the good machine is simulated for.
	ppChunkStart = 8
	ppChunkMax   = 64
)

// ErrBatchLanes marks a chip batch whose lanes do not fit the
// lane-block width the engine is about to walk — the guard that keeps a
// re-packed (compacted) batch from silently indexing lanes past the
// narrower forcing table.
var ErrBatchLanes = errors.New("tester: batch lanes exceed lane-block width")

// chipParallelState is the engine's per-ATE scratch, allocated once and
// reused across lots: one walk state and one forcing table, both built
// at ppWords and re-strided as batches compact, plus the scheduler's
// buffers.
type chipParallelState struct {
	sim    *logicsim.WideSim
	forces *logicsim.WideLaneForces
	// good holds the good machine of the 64-pattern block the current
	// chunk applies: the reference every event walk diffs against.
	good *logicsim.FlatSim

	out, goodOut []uint64
	work, next   []ppItem
	sort         ppSort
	// dense counts the patterns walked by the full kernel after an
	// event walk found the batch disturbing most of the circuit.
	dense int
}

// ppItem is one defective chip awaiting testing: its lot index and its
// batching key (lowest fault-universe index).
type ppItem struct {
	chip, key int32
}

// ppSort is the reusable scratch of sortWork; tmp holds at least as
// many items as the work list (the engine sizes it to the lot).
type ppSort struct {
	count []int32
	tmp   []ppItem
}

// sortWork orders the lot's defective chips by batching key, chip index
// breaking ties — the deterministic schedule. Keys are fault-universe
// indexes, so instead of a comparison sort this is one stable counting
// pass over nKeys buckets: count the keys, prefix-sum the counts into
// bucket offsets, and place the items in their incoming (chip) order.
// On shallow circuits chips die within the first few patterns and
// scheduling overhead competes with simulation itself — the comparison
// sort this replaces was a fifth of lot wall time.
func (ps *ppSort) sortWork(work []ppItem, nKeys int) {
	if cap(ps.count) < nKeys+1 {
		ps.count = make([]int32, nKeys+1)
	}
	count := ps.count[:nKeys+1]
	clear(count)
	for _, it := range work {
		count[it.key]++
	}
	var sum int32
	for k := range count {
		sum, count[k] = sum+count[k], sum
	}
	tmp := ps.tmp[:len(work)]
	copy(tmp, work)
	for _, it := range tmp {
		work[count[it.key]] = it
		count[it.key]++
	}
}

// chipParallel returns the engine's scratch, building it on first use.
func (a *ATE) chipParallel() (*chipParallelState, error) {
	if a.pp == nil {
		sim, err := logicsim.NewWideSim(a.flat, ppWords)
		if err != nil {
			return nil, err
		}
		forces, err := logicsim.NewWideLaneForces(a.flat, ppWords)
		if err != nil {
			return nil, err
		}
		a.pp = &chipParallelState{sim: sim, forces: forces, good: logicsim.NewFlatSim(a.flat)}
	}
	return a.pp, nil
}

// chipParallelFirstFail computes the per-chip first-fail record of the
// lot — pattern indices, or strobe steps when steps is true —
// bit-identical to serialFirstFail.
func (a *ATE) chipParallelFirstFail(lot defect.Lot, steps bool) ([]int, error) {
	st, err := a.chipParallel()
	if err != nil {
		return nil, err
	}
	universe, fresh, err := a.resolvedUniverse(lot.Universe)
	if err != nil {
		return nil, err
	}
	if fresh {
		// Every site of a new universe gets its forcing-table entry
		// now, so the lots that follow allocate nothing in the table.
		st.forces.Reserve(universe)
	}
	ff := make([]int, len(lot.Chips))
	// The defective chips never outnumber the lot, and the survivors of
	// a round never outnumber the chips going in, so sizing every
	// scheduler buffer to the lot once keeps the rounds allocation-free.
	if n := len(lot.Chips); cap(st.work) < n {
		st.work, st.next = make([]ppItem, 0, n), make([]ppItem, 0, n)
		st.sort.tmp = make([]ppItem, n)
	}
	work := st.work[:0]
	for i, chip := range lot.Chips {
		ff[i] = NeverFails
		if !chip.Defective() {
			continue
		}
		key := len(universe)
		for _, fi := range chip.Faults {
			if fi < 0 || fi >= len(universe) {
				return nil, errChipFault(fi)
			}
			key = min(key, fi)
		}
		work = append(work, ppItem{chip: int32(i), key: int32(key)})
	}
	// Batch by fault-site overlap: equal-key chips keep lot order (the
	// chip index breaks ties), so the schedule — and everything else —
	// is deterministic.
	st.sort.sortWork(work, len(universe))
	spare := st.next[:0]
	for base := 0; len(work) > 0 && base < len(a.patterns); {
		// Each chunk doubles the patterns applied so far (8, 8, 16, 32,
		// then one 64-pattern block at a time), so no chunk straddles a
		// block boundary and one good-machine simulation of the block
		// serves every batch of the chunk.
		end := min(base+min(max(base, ppChunkStart), ppChunkMax), len(a.patterns))
		if st.goodOut, err = st.good.RunInto(a.blocks[base/64], st.goodOut); err != nil {
			return nil, err
		}
		next := spare[:0]
		for lo := 0; lo < len(work); lo += ppLanes {
			hi := min(lo+ppLanes, len(work))
			if next, err = a.ppBatch(lot, universe, work[lo:hi], base, end, steps, ff, next); err != nil {
				return nil, err
			}
		}
		work, spare = next, work
		base = end
	}
	st.work, st.next = work, spare
	return ff, nil
}

// errChipFault builds the out-of-universe error outside the hot loops.
func errChipFault(fi int) error {
	return fmt.Errorf("tester: chip fault index %d out of universe", fi)
}

// laneWordsFor returns the narrowest lane-block width holding the good
// machine plus n chip lanes.
func laneWordsFor(n int) int {
	return (n + 1 + 63) / 64
}

// ppBuild (re)fills the forcing table with the resolved faults of the
// batch lanes still alive, validating that every lane fits the table's
// width: after a compaction the table is narrower than the one the
// batch started on, and a lane index surviving from the wide assignment
// must never reach it (ErrBatchLanes names that invariant instead of an
// opaque lane-range error deep in logicsim). The walk cost then tracks
// the survivor count, whether the rebuild came from the 3/4-dead
// pruning threshold or from a re-pack.
func (a *ATE) ppBuild(lot defect.Lot, universe []logicsim.SlotInjection, batch []ppItem, alive []uint64) error {
	lf := a.pp.forces
	if len(batch)+1 > lf.Lanes() {
		return errBatchLanes(len(batch), lf.Words())
	}
	lf.Reset()
	for i := range batch {
		lane := i + 1
		if alive[lane>>6]>>uint(lane&63)&1 == 0 {
			continue
		}
		for _, fi := range lot.Chips[batch[i].chip].Faults {
			lf.AddResolved(universe[fi], lane)
		}
	}
	return nil
}

// errBatchLanes builds the lane-overflow error outside the batch loop.
func errBatchLanes(chips, words int) error {
	return fmt.Errorf("tester: %d chip lanes into a %d-word block: %w", chips, words, ErrBatchLanes)
}

// setWords re-strides the walk state and forcing table to a lane-block
// width.
func (st *chipParallelState) setWords(words int) error {
	if err := st.sim.SetWords(words); err != nil {
		return err
	}
	return st.forces.SetWords(words)
}

// ppBatch walks patterns [base, end) for one batch of up to 255 chips,
// recording first fails and appending the survivors to next. The batch
// slice is compacted in place as lanes die (its tail entries are dead
// storage afterwards; the caller's work buffer is rebuilt from next
// each chunk, so nothing reads them).
//
//repolint:hotpath
func (a *ATE) ppBatch(lot defect.Lot, universe []logicsim.SlotInjection, batch []ppItem,
	base, end int, steps bool, ff []int, next []ppItem) ([]ppItem, error) {
	st := a.pp
	words := laneWordsFor(len(batch))
	if err := st.setWords(words); err != nil {
		return nil, err
	}
	// alive covers chip lanes 1..len(batch); aliveArr keeps it off the
	// heap across the width changes.
	var aliveArr [logicsim.MaxLaneWords]uint64
	alive := aliveArr[:words]
	setAlive := func(nLanes int) {
		for k := 0; k < len(alive); k++ {
			lo := k * 64
			switch {
			case nLanes >= lo+64:
				alive[k] = ^uint64(0)
			case nLanes > lo:
				alive[k] = (uint64(1) << uint(nLanes-lo)) - 1
			default:
				alive[k] = 0
			}
		}
		alive[0] &^= 1 // lane 0 is the good machine
	}
	setAlive(len(batch) + 1)
	if err := a.ppBuild(lot, universe, batch, alive); err != nil {
		return nil, err
	}
	built := len(batch)
	liveCount := func() int {
		n := 0
		for k := 0; k < len(alive); k++ {
			n += bits.OnesCount64(alive[k])
		}
		return n
	}
	nOut := len(a.c.Outputs)
	out := st.out
	var err error
	dense := false
	for p := base; p < end; p++ {
		if dense {
			out, err = st.sim.RunLaneForced(a.blocks[p/64], p%64, st.forces, out)
			st.dense++
		} else {
			// The event walk pays per slot it evaluates, the full walk
			// per slot of the circuit with less overhead: once one
			// pattern disturbs more than half the circuit, the batch's
			// faults are dense enough that the full walk wins for the
			// rest of the chunk.
			var evals int
			out, evals, err = st.sim.RunLaneEvents(st.good, p%64, st.forces, alive, out)
			dense = evals > a.flat.Slots()/2
		}
		if err != nil {
			return nil, err
		}
		for o := 0; o < nOut; o++ {
			ob := out[o*words : (o+1)*words]
			gb := -(ob[0] & 1) // broadcast the good machine (lane 0)
			anyDiff := false
			for k := 0; k < words; k++ {
				if (ob[k]^gb)&alive[k] != 0 {
					anyDiff = true
					break
				}
			}
			if !anyDiff {
				continue
			}
			for k := 0; k < words; k++ {
				d := (ob[k] ^ gb) & alive[k]
				for d != 0 {
					bit := bits.TrailingZeros64(d)
					d &^= uint64(1) << uint(bit)
					alive[k] &^= uint64(1) << uint(bit)
					lane := k*64 + bit
					if steps {
						ff[batch[lane-1].chip] = p*nOut + o
					} else {
						ff[batch[lane-1].chip] = p
					}
				}
			}
		}
		n := liveCount()
		if n == 0 || p+1 >= end {
			break
		}
		if w2 := laneWordsFor(n); w2 <= words/2 {
			// ≥ half the words hold no live lane: re-pack the survivors
			// into the low lanes of a narrower block and continue there.
			// Survivor order is preserved, so the lowest-fault-index
			// ordering the scheduler relies on is untouched.
			n2 := 0
			for lane := 1; lane <= len(batch); lane++ {
				if alive[lane>>6]>>uint(lane&63)&1 == 1 {
					batch[n2] = batch[lane-1]
					n2++
				}
			}
			batch = batch[:n2]
			words = w2
			if err := st.setWords(words); err != nil {
				return nil, err
			}
			alive = aliveArr[:words]
			setAlive(n2 + 1)
			if err := a.ppBuild(lot, universe, batch, alive); err != nil {
				return nil, err
			}
			built = n2
		} else if n*4 <= built {
			// Same-width prune: rebuild the force table over the
			// survivors so the staged evaluations stop paying for dead
			// lanes' faults.
			if err := a.ppBuild(lot, universe, batch, alive); err != nil {
				return nil, err
			}
			built = n
		}
	}
	st.out = out
	for lane := 1; lane <= len(batch); lane++ {
		if alive[lane>>6]>>uint(lane&63)&1 == 1 {
			next = append(next, batch[lane-1])
		}
	}
	return next, nil
}
