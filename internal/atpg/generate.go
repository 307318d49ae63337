package atpg

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// RunResult summarizes a full ATPG run.
type RunResult struct {
	Patterns   []logicsim.Pattern
	Coverage   float64 // coverage of the collapsed fault list
	Detected   int
	Untestable int
	Aborted    int
	Faults     int
}

// GenerateAll runs deterministic ATPG over the circuit's equivalence-
// collapsed fault list with fault dropping: each PODEM test is fault-
// simulated against the remaining faults so one pattern usually retires
// many faults. Random-fill is not used; the run is fully reproducible.
func GenerateAll(c *netlist.Circuit) (RunResult, error) {
	if err := c.Validate(); err != nil {
		return RunResult{}, fmt.Errorf("atpg: invalid circuit: %w", err)
	}
	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)
	gen, err := NewPodem(c)
	if err != nil {
		return RunResult{}, err
	}
	detected := make([]bool, len(reps))
	live := newLiveList(reps, detected)
	res := RunResult{Faults: len(reps)}
	for fi, f := range reps {
		if detected[fi] {
			continue
		}
		pattern, status := gen.Generate(f)
		switch status {
		case Untestable:
			res.Untestable++
			continue
		case Aborted:
			res.Aborted++
			continue
		}
		res.Patterns = append(res.Patterns, pattern)
		// Drop everything this pattern detects.
		n, err := live.drop(c, pattern, detected, faultsim.PPSFP, faultsim.Options{})
		if err != nil {
			return RunResult{}, err
		}
		res.Detected += n
		if !detected[fi] {
			// The generated pattern must detect its target; a miss means
			// the generator and simulator disagree.
			return RunResult{}, fmt.Errorf("atpg: internal inconsistency: PODEM test for %v not confirmed by fault simulation", f.Name(c))
		}
	}
	res.Coverage = float64(res.Detected) / float64(res.Faults)
	return res, nil
}

// Compact performs reverse-order compaction: patterns are fault-
// simulated in reverse order with dropping, and any pattern that
// detects no fresh fault is discarded. The compacted set preserves
// total coverage.
func Compact(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) ([]logicsim.Pattern, error) {
	return CompactEngine(c, faults, patterns, faultsim.PPSFP, faultsim.Options{})
}

// CompactEngine is Compact with an explicit fault-simulation engine and
// options (every engine returns identical first-detects, so the
// compacted set is engine-independent; only wall-clock changes).
func CompactEngine(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine faultsim.Engine, opt faultsim.Options) ([]logicsim.Pattern, error) {
	if len(patterns) == 0 {
		return nil, nil
	}
	reversed := make([]logicsim.Pattern, len(patterns))
	for i, p := range patterns {
		reversed[len(patterns)-1-i] = p
	}
	res, err := faultsim.RunOpts(c, faults, reversed, engine, opt)
	if err != nil {
		return nil, err
	}
	useful := make(map[int]bool)
	for _, d := range res.FirstDetect {
		if d != faultsim.NotDetected {
			useful[d] = true
		}
	}
	var out []logicsim.Pattern
	for i := range reversed {
		if useful[i] {
			out = append(out, reversed[i])
		}
	}
	return out, nil
}

// HybridTests produces the realistic production test order the paper
// describes: a burst of pseudo-random patterns first (cheap, catches
// the easy faults fast, giving the steep initial fallout ramp), then
// deterministic PODEM tests for the random-resistant remainder.
func HybridTests(c *netlist.Circuit, randomCount int, seed int64) ([]logicsim.Pattern, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("atpg: invalid circuit: %w", err)
	}
	src, err := NewRandomSource(len(c.Inputs), seed)
	if err != nil {
		return nil, err
	}
	return CleanupTests(c, Take(src, randomCount))
}

// CleanupTests appends deterministic PODEM tests for every collapsed
// fault the base pattern sequence misses, preserving the base order.
func CleanupTests(c *netlist.Circuit, base []logicsim.Pattern) ([]logicsim.Pattern, error) {
	return CleanupTestsEngine(c, base, faultsim.PPSFP, faultsim.Options{})
}

// CleanupTestsEngine is CleanupTests with an explicit fault-simulation
// engine and options for the grading and dropping passes. The fault-
// parallel engine suits the one-pattern-many-faults dropping loop; the
// default cone-restricted PPSFP suits the long base sequence.
func CleanupTestsEngine(c *netlist.Circuit, base []logicsim.Pattern, engine faultsim.Engine, opt faultsim.Options) ([]logicsim.Pattern, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("atpg: invalid circuit: %w", err)
	}
	reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
	patterns, _, err := CleanupTestsBudget(c, base, reps, 0, engine, opt)
	return patterns, err
}

// Tally is the per-fault ATPG outcome accounting over one target fault
// list: how many faults the final pattern set detects, how many PODEM
// proved untestable, and how many it abandoned at the backtrack budget.
// The three buckets partition the fault list.
type Tally struct {
	Faults     int `json:"faults"`
	Detected   int `json:"detected"`
	Untestable int `json:"untestable"`
	Aborted    int `json:"aborted"`
}

// CleanupTestsBudget is the accounting core of the cleanup pass: it
// targets an explicit fault list (the caller's collapsed universe, or a
// sample of it), bounds PODEM to backtrackLimit backtracks per fault
// (0 = the generator's 10000 default), and reports the outcome tally
// instead of silently skipping untestable and aborted faults. The
// pattern set is identical to CleanupTestsEngine's when given the full
// collapsed list and a zero budget.
func CleanupTestsBudget(c *netlist.Circuit, base []logicsim.Pattern, reps []fault.Fault, backtrackLimit int, engine faultsim.Engine, opt faultsim.Options) ([]logicsim.Pattern, Tally, error) {
	if err := c.Validate(); err != nil {
		return nil, Tally{}, fmt.Errorf("atpg: invalid circuit: %w", err)
	}
	if backtrackLimit < 0 {
		return nil, Tally{}, fmt.Errorf("atpg: backtrack limit must be >= 0, got %d", backtrackLimit)
	}
	patterns := base
	tally := Tally{Faults: len(reps)}
	detected := make([]bool, len(reps))
	if len(patterns) > 0 && len(reps) > 0 {
		res, err := faultsim.RunOpts(c, reps, patterns, engine, opt)
		if err != nil {
			return nil, Tally{}, err
		}
		for fi, d := range res.FirstDetect {
			detected[fi] = d != faultsim.NotDetected
		}
	}
	gen, err := NewPodem(c)
	if err != nil {
		return nil, Tally{}, err
	}
	gen.BacktrackLimit = backtrackLimit
	live := newLiveList(reps, detected)
	// Aborts are provisional: a fault abandoned at its own budget may
	// still fall to a later fault's pattern during dropping, so the
	// abort bucket is settled only after the loop, over the faults that
	// stayed undetected. Untestable is a proof and final immediately.
	aborted := make([]bool, len(reps))
	for fi, f := range reps {
		if detected[fi] {
			continue
		}
		pattern, status := gen.Generate(f)
		if status != Detected {
			switch status {
			case Untestable:
				tally.Untestable++
			case Aborted:
				aborted[fi] = true
			}
			continue
		}
		patterns = append(patterns, pattern)
		if _, err := live.drop(c, pattern, detected, engine, opt); err != nil {
			return nil, Tally{}, err
		}
	}
	for fi, d := range detected {
		switch {
		case d:
			tally.Detected++
		case aborted[fi]:
			tally.Aborted++
		}
	}
	return patterns, tally, nil
}

// liveList is the fault-dropping loop's list of still-undetected
// faults, in fault-list order, beside their indices into that list. It
// is compacted in place as patterns detect faults, so each dropping
// pass costs what is still alive rather than the whole list.
type liveList struct {
	faults []fault.Fault
	idx    []int
}

// newLiveList collects the faults not yet marked detected.
func newLiveList(reps []fault.Fault, detected []bool) *liveList {
	l := &liveList{}
	for fi, f := range reps {
		if !detected[fi] {
			l.faults = append(l.faults, f)
			l.idx = append(l.idx, fi)
		}
	}
	return l
}

// drop fault-simulates one pattern against the live faults, marks the
// ones it detects in detected, removes them from the list (keeping the
// survivors' order), and returns how many it dropped.
func (l *liveList) drop(c *netlist.Circuit, pattern logicsim.Pattern, detected []bool, engine faultsim.Engine, opt faultsim.Options) (int, error) {
	res, err := faultsim.RunOpts(c, l.faults, []logicsim.Pattern{pattern}, engine, opt)
	if err != nil {
		return 0, err
	}
	k := 0
	for ri, d := range res.FirstDetect {
		if d != faultsim.NotDetected {
			detected[l.idx[ri]] = true
			continue
		}
		l.faults[k], l.idx[k] = l.faults[ri], l.idx[ri]
		k++
	}
	dropped := len(l.faults) - k
	l.faults, l.idx = l.faults[:k], l.idx[:k]
	return dropped, nil
}
