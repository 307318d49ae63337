package faultsim

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// Strobe-granular fault simulation. An ATE applies a pattern and then
// strobes each output in sequence; a "test step" is one (pattern,
// output) strobe event. Table 1 of the paper counts failures per
// strobe ("on the first pattern at which the tester strobed the chip
// output"), so the lot experiment needs first-detection indices at
// strobe granularity: step = pattern*numOutputs + outputIndex.
//
// The first failing strobe factors: its pattern is the fault's ordinary
// first-detect pattern, and its output is the lowest-indexed output the
// fault flips on that pattern. So RunSteps runs any pattern-level
// engine first and then refines each detected fault with a single
// cone-restricted re-simulation of its detecting pattern — strobe
// granularity costs one extra cone pass per detected fault instead of a
// dedicated engine.

// RunSteps fault-simulates the ordered patterns with per-strobe
// granularity using the default engine. The returned Result counts
// steps, not patterns: Result.Patterns = len(patterns)*len(c.Outputs)
// and FirstDetect holds step indices.
func RunSteps(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) (Result, error) {
	return RunStepsOpts(c, faults, patterns, PPSFP, Options{})
}

// RunStepsOpts is RunSteps with an explicit pattern-level engine.
func RunStepsOpts(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine, opt Options) (Result, error) {
	s, err := simulate(c, faults, patterns, engine, opt)
	if err != nil {
		return Result{}, err
	}
	nOut := len(c.Outputs)
	first := make([]int, len(faults))
	var detected []int
	for fi, p := range s.first {
		first[fi] = NotDetected
		if p != NotDetected {
			detected = append(detected, fi)
		}
	}
	// Refine pattern by pattern in ascending order (fault order within
	// a pattern), so a disagreement is reported the same way every run.
	slices.SortStableFunc(detected, func(a, b int) int { return s.first[a] - s.first[b] })
	// The session's slot cones: the ones the pattern-level run just
	// walked, or, for an engine that walks none, compiled now for the
	// session's fault sites.
	cones, err := s.flatConeSet()
	if err != nil {
		return Result{}, err
	}
	fsim, err := s.flatSim()
	if err != nil {
		return Result{}, err
	}
	flat := cones.Flat()
	outDiffs := make([]uint64, nOut)
	var good []uint64
	for lo := 0; lo < len(detected); {
		p := s.first[detected[lo]]
		hi := lo + 1
		for hi < len(detected) && s.first[detected[hi]] == p {
			hi++
		}
		blk, err := logicsim.PackPatterns([]logicsim.Pattern{patterns[p]})
		if err != nil {
			return Result{}, err
		}
		if good, err = fsim.RunInto(blk, good); err != nil {
			return Result{}, err
		}
		for _, fi := range detected[lo:hi] {
			f := faults[fi]
			slot := flat.SlotOf(f.Gate)
			cone := cones.ConeOfPtr(slot)
			var diff uint64
			if f.Pin < 0 {
				diff, err = fsim.RunCone(slot, f.Stuck, cone, outDiffs)
			} else {
				diff, err = fsim.RunConeForced(slot, f.Pin, f.Stuck, cone, outDiffs)
			}
			if err != nil {
				return Result{}, err
			}
			if diff == 0 {
				return Result{}, fmt.Errorf("faultsim: %v engine detected fault %d at pattern %d but re-simulation does not", engine, fi, p)
			}
			// cone.Outputs ascends, so the first differing entry is the
			// first strobed output the fault flips.
			for _, oi := range cone.Outputs {
				if outDiffs[oi]&1 != 0 {
					first[fi] = p*nOut + int(oi)
					break
				}
			}
		}
		lo = hi
	}
	return Result{FirstDetect: first, Patterns: len(patterns) * nOut}, nil
}

// StepCoverageCurve fault-simulates at strobe granularity and returns
// the cumulative coverage after every step.
func StepCoverageCurve(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) ([]CoveragePoint, Result, error) {
	return StepCoverageCurveOpts(c, faults, patterns, PPSFP, Options{})
}

// StepCoverageCurveOpts is StepCoverageCurve with an explicit engine.
func StepCoverageCurveOpts(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine, opt Options) ([]CoveragePoint, Result, error) {
	res, err := RunStepsOpts(c, faults, patterns, engine, opt)
	if err != nil {
		return nil, Result{}, err
	}
	return CurveFromResult(res), res, nil
}
