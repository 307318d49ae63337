// Package faultsim checks that the simulation packages, which produce
// the Prepared-store bytes, are in the determinism scope: a map walk
// that picks which error to report must be flagged.
package faultsim

import "fmt"

func firstMismatch(byPattern map[int][]int) error {
	for p, faults := range byPattern { // want determinism
		if len(faults) > 0 {
			return fmt.Errorf("pattern %d", p)
		}
	}
	return nil
}
