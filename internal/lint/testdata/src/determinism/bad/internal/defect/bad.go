// Package defect checks that lot manufacture, whose chips the sweep
// CSVs fold, is in the determinism scope: collecting a chip's faults
// from a map and drawing from the global source must both be flagged.
package defect

import "math/rand"

func chipFaults(chosen map[int]bool) []int {
	out := make([]int, 0, len(chosen))
	for idx := range chosen { // want determinism
		out = append(out, idx)
	}
	return out
}

func defects() int {
	return rand.Intn(4) // want determinism
}
