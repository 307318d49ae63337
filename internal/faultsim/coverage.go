package faultsim

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// CoveragePoint is one point of the cumulative coverage ramp: after
// applying patterns 0..Pattern, the test set detects Detected faults,
// for a coverage of Coverage (fraction of the simulated fault list).
type CoveragePoint struct {
	Pattern  int
	Detected int
	Coverage float64
}

// CoverageCurve fault-simulates the ordered patterns (PPSFP with fault
// dropping) and returns the cumulative coverage after every pattern.
// This is the fault-simulator product the paper's §5 procedure starts
// from: "A cumulative fault coverage as a function of the number of
// test patterns is obtained."
func CoverageCurve(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) ([]CoveragePoint, Result, error) {
	res, err := Run(c, faults, patterns, PPSFP)
	if err != nil {
		return nil, Result{}, err
	}
	return CurveFromResult(res), res, nil
}

// CurveFromResult converts first-detect indices to a cumulative curve.
func CurveFromResult(res Result) []CoveragePoint {
	perPattern := make([]int, res.Patterns)
	for _, d := range res.FirstDetect {
		if d != NotDetected {
			perPattern[d]++
		}
	}
	curve := make([]CoveragePoint, res.Patterns)
	cum := 0
	total := len(res.FirstDetect)
	for i := 0; i < res.Patterns; i++ {
		cum += perPattern[i]
		curve[i] = CoveragePoint{
			Pattern:  i,
			Detected: cum,
			Coverage: float64(cum) / float64(total),
		}
	}
	return curve
}

// Dictionary maps each pattern to the faults it detects first; an ATE
// that logs the first failing pattern can look up the likely fault
// class. The paper's experiment records exactly this first-fail index.
type Dictionary struct {
	// ByPattern[p] lists fault indices first detected by pattern p.
	ByPattern map[int][]int
}

// BuildDictionary constructs the first-detect dictionary from a result.
func BuildDictionary(res Result) Dictionary {
	d := Dictionary{ByPattern: make(map[int][]int)}
	for fi, p := range res.FirstDetect {
		if p != NotDetected {
			d.ByPattern[p] = append(d.ByPattern[p], fi)
		}
	}
	//repolint:ordered — each list is sorted on its own; visit order cannot reach the result
	for p := range d.ByPattern {
		sort.Ints(d.ByPattern[p])
	}
	return d
}

// Undetected returns the indices of faults the pattern set misses.
func Undetected(res Result) []int {
	var out []int
	for fi, p := range res.FirstDetect {
		if p == NotDetected {
			out = append(out, fi)
		}
	}
	return out
}

// Grade summarizes a test set against a circuit's collapsed fault
// universe: total faults, detected, coverage, and the coverage curve.
type Grade struct {
	Circuit    string
	Faults     int
	Detected   int
	Coverage   float64
	Curve      []CoveragePoint
	Undetected []fault.Fault
}

// GradeTests builds the fault universe (equivalence-collapsed), fault
// simulates, and reports a grade. It is the highest-level entry point a
// test engineer would call.
func GradeTests(c *netlist.Circuit, patterns []logicsim.Pattern) (Grade, error) {
	if err := c.Validate(); err != nil {
		return Grade{}, fmt.Errorf("faultsim: invalid circuit: %w", err)
	}
	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)
	curve, res, err := CoverageCurve(c, reps, patterns)
	if err != nil {
		return Grade{}, err
	}
	var undet []fault.Fault
	for _, fi := range Undetected(res) {
		undet = append(undet, reps[fi])
	}
	return Grade{
		Circuit:    c.Name,
		Faults:     len(reps),
		Detected:   res.DetectedBy(res.Patterns - 1),
		Coverage:   res.Coverage(),
		Curve:      curve,
		Undetected: undet,
	}, nil
}
