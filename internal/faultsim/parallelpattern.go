package faultsim

import (
	"math/bits"
	"sync"

	"repro/internal/logicsim"
)

// diffFault simulates fault fi against one block on the flat core and
// returns the word whose bit p is set iff pattern p of the block
// detects the fault, plus the (possibly regrown) output scratch slice.
// With cones non-nil the pass is cone-restricted — only the fault's
// slot cone is re-evaluated, with activation early-exit — and the flat
// simulator must already hold the block's good-machine values (the
// cone walks never disturb them, so consecutive calls share one good
// evaluation). With cones nil it is the full-circuit reference path: a
// scalar flat walk with the fault injected, diffed against the stored
// good outputs.
// This is the single copy of the diff-and-detect rule every
// parallel-pattern engine (serial, ppsfp) runs on.
//
//repolint:hotpath
func (s *session) diffFault(fsim *logicsim.FlatSim, cones *logicsim.FlatConeSet, b *block, fi int, scratch []uint64) (uint64, []uint64, error) {
	f := s.faults[fi]
	if cones != nil {
		// The cone is borrowed from the set (ConeOfPtr): no FlatCone copy
		// on this per-(fault, block) path, and the gate-to-slot map is a
		// plain array lookup.
		var (
			diff uint64
			err  error
		)
		slot := fsim.Flat().SlotOf(f.Gate)
		cone := cones.ConeOfPtr(slot)
		if f.Pin < 0 {
			diff, err = fsim.RunCone(slot, f.Stuck, cone, nil)
		} else {
			diff, err = fsim.RunConeForced(slot, f.Pin, f.Stuck, cone, nil)
		}
		return diff, scratch, err
	}
	slot := fsim.Flat().SlotOf(f.Gate)
	bad, err := fsim.RunWithFaultInto(b.pat, slot, f.Pin, f.Stuck, scratch)
	if err != nil {
		return 0, scratch, err
	}
	mask := b.pat.Mask()
	var diff uint64
	for o := range bad {
		diff |= (bad[o] ^ b.good[o]) & mask
	}
	return diff, bad, nil
}

// runParallelPattern is the parallel-pattern engine family over the
// flat core: 64 patterns per machine word, one fault injected at a
// time. drop skips faults already detected in earlier blocks (PPSFP
// fault dropping; without it every fault meets every block, the serial
// baseline). cone restricts each faulty pass to the fault's slot cone
// on top of the block's good-machine values instead of re-walking the
// whole circuit.
//
// workers > 1 shards the fault list into that many contiguous ranges
// (at most one per fault), each simulated on its own goroutine with its
// own flat walk state (FlatSim is not safe for concurrent use) while
// sharing the packed blocks, the immutable flat circuit, and its slot
// cones. Every first-detect slot has exactly one writer, so fault
// dropping works shard-locally without synchronization, and the result
// is identical to the single-goroutine run; only wall-clock changes.
func (s *session) runParallelPattern(drop, cone bool, workers int) error {
	blocks, err := s.packBlocks(!cone)
	if err != nil {
		return err
	}
	var cones *logicsim.FlatConeSet
	if cone {
		// Resolved before any worker spawns; the set and its cones are
		// immutable and shared read-only.
		if cones, err = s.flatConeSet(); err != nil {
			return err
		}
	}
	if workers = min(workers, len(s.faults)); workers <= 1 {
		fsim, err := s.flatSim()
		if err != nil {
			return err
		}
		return s.simulateFaults(fsim, blocks, cones, 0, len(s.faults), drop)
	}
	flat, err := s.flatCircuit()
	if err != nil {
		return err
	}
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	chunk := (len(s.faults) + workers - 1) / workers
	for lo := 0; lo < len(s.faults); lo += chunk {
		hi := min(lo+chunk, len(s.faults))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if err := s.simulateFaults(logicsim.NewFlatSim(flat), blocks, cones, lo, hi, drop); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}(lo, hi)
	}
	wg.Wait()
	return firstErr
}

// simulateFaults runs faults [lo, hi) through every block on one flat
// walk state, recording first detections. With cones non-nil each
// block's good machine is established once and every surviving fault
// re-walks only its cone on top of it.
func (s *session) simulateFaults(fsim *logicsim.FlatSim, blocks []block, cones *logicsim.FlatConeSet, lo, hi int, drop bool) error {
	var scratch []uint64
	var err error
	for bi := range blocks {
		b := &blocks[bi]
		if drop && !s.anyAlive(lo, hi) {
			break // everything detected; skip the dead tail
		}
		if cones != nil {
			// (Re-)establish the good machine for this block; the cone
			// walks never disturb it, so one evaluation serves every
			// surviving fault.
			if scratch, err = fsim.RunInto(b.pat, scratch); err != nil {
				return err
			}
		}
		for fi := lo; fi < hi; fi++ {
			if drop && !s.alive(fi) {
				continue
			}
			var diff uint64
			diff, scratch, err = s.diffFault(fsim, cones, b, fi, scratch)
			if err != nil {
				return err
			}
			if diff != 0 {
				s.detect(fi, b.base+bits.TrailingZeros64(diff))
			}
		}
	}
	return nil
}
