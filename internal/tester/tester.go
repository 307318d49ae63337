// Package tester is the ATE (automatic test equipment) substrate: it
// applies an ordered pattern set to each chip of a lot, stops at the
// first failing pattern, and records that pattern's index — exactly the
// experiment §5 and §7 of the paper run on a Fairchild Sentry. The
// per-chip first-fail indices, joined with the fault simulator's
// cumulative-coverage ramp, give the fallout curve from which n0 is
// estimated.
//
// Two lot engines share one result contract (identical FirstFail, bit
// for bit), both on the flat struct-of-arrays core: Serial tests one
// chip at a time — the oracle — and ChipParallel, the default, packs
// the good machine plus up to 255 defective chips into the lanes of a
// 4-word lane block and simulates them together once per pattern,
// evaluating only the gates where some chip differs from the good
// machine (see chipparallel.go).
package tester

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// NeverFails marks a chip that passes the whole pattern set.
const NeverFails = -1

// LotEngine selects how TestLot/TestLotSteps walk a lot. Both engines
// produce bit-identical results; they differ only in speed.
type LotEngine int

// Available lot engines. ChipParallel is the zero value on purpose: an
// unconfigured engine field selects the fast path, and Serial stays
// around as the per-chip oracle the equivalence tests pin it to.
const (
	ChipParallel LotEngine = iota
	Serial
)

// lotEngineNames maps each engine to its CLI-stable name.
var lotEngineNames = map[LotEngine]string{
	ChipParallel: "chip-parallel",
	Serial:       "serial",
}

// String names the lot engine.
func (e LotEngine) String() string {
	if n, ok := lotEngineNames[e]; ok {
		return n
	}
	return fmt.Sprintf("LotEngine(%d)", int(e))
}

// Known reports whether e is a registered lot engine, letting
// configuration layers fail fast instead of erroring mid-lot.
func (e LotEngine) Known() bool {
	_, ok := lotEngineNames[e]
	return ok
}

// ParseLotEngine maps an engine name (as printed by String and accepted
// by the CLIs) back to the LotEngine.
func ParseLotEngine(name string) (LotEngine, error) {
	for _, e := range LotEngines() {
		if lotEngineNames[e] == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("tester: unknown lot engine %q", name)
}

// LotEngines lists every registered lot engine in a stable order.
func LotEngines() []LotEngine {
	out := make([]LotEngine, 0, len(lotEngineNames))
	//repolint:ordered — key harvest; sorted below before anyone reads it
	for e := range lotEngineNames {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ATE tests chips against a fixed circuit and ordered pattern set.
type ATE struct {
	c        *netlist.Circuit
	flat     *logicsim.Flat // compiled per ATE, so it dies with the ATE
	patterns []logicsim.Pattern
	blocks   []logicsim.PatternBlock
	engine   LotEngine

	// Fault-universe cache: campaigns share one fault universe across
	// thousands of lots, so its conversion to injectable form (and, for
	// chip-parallel, its resolution to slot space) is keyed by slice
	// identity and done once per ATE (see injectionsFor).
	univKey   *fault.Fault
	univLen   int
	univ      []logicsim.Injection
	univSlots []logicsim.SlotInjection // nil until resolvedUniverse runs

	pp     *chipParallelState // lazily built chip-parallel scratch
	serial *serialState       // lazily built serial-oracle scratch
}

// serialState is the serial oracle's scratch: a 64-lane flat walk and
// the good machine's outputs per block, simulated on first use.
type serialState struct {
	sim  *logicsim.FlatSim
	good [][]uint64
	out  []uint64
}

// New builds an ATE with the default (chip-parallel) lot engine.
func New(c *netlist.Circuit, patterns []logicsim.Pattern) (*ATE, error) {
	return NewEngine(c, patterns, ChipParallel)
}

// NewEngine is New with an explicit lot engine.
func NewEngine(c *netlist.Circuit, patterns []logicsim.Pattern, engine LotEngine) (*ATE, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("tester: no patterns")
	}
	if !engine.Known() {
		return nil, fmt.Errorf("tester: unknown lot engine %v", engine)
	}
	flat, err := logicsim.NewFlat(c)
	if err != nil {
		return nil, err
	}
	a := &ATE{c: c, flat: flat, patterns: patterns, engine: engine}
	for base := 0; base < len(patterns); base += 64 {
		block, err := logicsim.PackPatterns(patterns[base:min(base+64, len(patterns))])
		if err != nil {
			return nil, err
		}
		a.blocks = append(a.blocks, block)
	}
	return a, nil
}

// Engine returns the lot engine TestLot/TestLotSteps dispatch to.
func (a *ATE) Engine() LotEngine { return a.engine }

// SetEngine switches the lot engine. Results are unaffected — the
// engines are bit-identical — so this is purely a speed/oracle knob.
func (a *ATE) SetEngine(e LotEngine) { a.engine = e }

// Patterns returns the number of patterns the ATE applies.
func (a *ATE) Patterns() int { return len(a.patterns) }

// serialOracle returns the serial engine's scratch, simulating the good
// machine on first use.
func (a *ATE) serialOracle() (*serialState, error) {
	if a.serial == nil {
		st := &serialState{sim: logicsim.NewFlatSim(a.flat)}
		for _, block := range a.blocks {
			good, err := st.sim.RunInto(block, nil)
			if err != nil {
				return nil, err
			}
			st.good = append(st.good, good)
		}
		a.serial = st
	}
	return a.serial, nil
}

// chipDiffs runs the chip's multi-fault machine over the blocks in
// order, handing visit each block's faulty and good output words and
// valid-pattern mask, and stops at the first block visit reports as
// failing.
func (a *ATE) chipDiffs(chip defect.Chip, universe []logicsim.Injection, visit func(bi int, bad, good []uint64, mask uint64) bool) error {
	st, err := a.serialOracle()
	if err != nil {
		return err
	}
	inj, err := a.injections(chip, universe)
	if err != nil {
		return err
	}
	for bi, block := range a.blocks {
		if st.out, err = st.sim.RunWithFaultsInto(block, inj, st.out); err != nil {
			return err
		}
		if visit(bi, st.out, st.good[bi], block.Mask()) {
			return nil
		}
	}
	return nil
}

// TestChip returns the index of the first pattern the chip fails, or
// NeverFails. The chip's faults are injected simultaneously (a multi-
// fault machine), which is what physical testing actually observes.
func (a *ATE) TestChip(chip defect.Chip, universe []logicsim.Injection) (int, error) {
	if !chip.Defective() {
		return NeverFails, nil
	}
	first := NeverFails
	err := a.chipDiffs(chip, universe, func(bi int, bad, good []uint64, mask uint64) bool {
		var diff uint64
		for o := range bad {
			diff |= (bad[o] ^ good[o]) & mask
		}
		if diff != 0 {
			first = bi*64 + bits.TrailingZeros64(diff)
		}
		return diff != 0
	})
	return first, err
}

// TestChipSteps returns the first failing *strobe* (pattern × output)
// step index, or NeverFails. This matches the Sentry's bookkeeping in
// Table 1 ("the first pattern at which the tester strobed the chip
// output"): step = pattern*numOutputs + outputIndex.
func (a *ATE) TestChipSteps(chip defect.Chip, universe []logicsim.Injection) (int, error) {
	if !chip.Defective() {
		return NeverFails, nil
	}
	nOut := len(a.c.Outputs)
	first := NeverFails
	err := a.chipDiffs(chip, universe, func(bi int, bad, good []uint64, mask uint64) bool {
		for o := range bad {
			diff := (bad[o] ^ good[o]) & mask
			if diff == 0 {
				continue
			}
			step := (bi*64+bits.TrailingZeros64(diff))*nOut + o
			if first == NeverFails || step < first {
				first = step
			}
		}
		return first != NeverFails
	})
	return first, err
}

// injections maps a chip's fault indices into injectable faults.
func (a *ATE) injections(chip defect.Chip, universe []logicsim.Injection) ([]logicsim.Injection, error) {
	inj := make([]logicsim.Injection, len(chip.Faults))
	for i, fi := range chip.Faults {
		if fi < 0 || fi >= len(universe) {
			return nil, errChipFault(fi)
		}
		inj[i] = universe[fi]
	}
	return inj, nil
}

// injectionsOf converts a fault universe to injectable form.
func injectionsOf(universe []fault.Fault) []logicsim.Injection {
	inj := make([]logicsim.Injection, len(universe))
	for i, f := range universe {
		inj[i] = logicsim.Injection{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck}
	}
	return inj
}

// injectionsFor converts a lot's fault universe to injectable form,
// cached by slice identity: campaigns share one universe (from a
// circuits.Prepared) across thousands of lots, so per-lot conversion
// was pure waste. A different universe (or a same-length reallocation)
// misses and converts again.
func (a *ATE) injectionsFor(universe []fault.Fault) []logicsim.Injection {
	if len(universe) == 0 {
		return nil
	}
	if a.univKey != &universe[0] || a.univLen != len(universe) {
		a.univKey, a.univLen = &universe[0], len(universe)
		a.univ, a.univSlots = injectionsOf(universe), nil
	}
	return a.univ
}

// resolvedUniverse is injectionsFor resolved to slot space, under the
// same cache. fresh reports a resolution done by this call, i.e. a
// universe the caller has not seen yet.
func (a *ATE) resolvedUniverse(universe []fault.Fault) (slots []logicsim.SlotInjection, fresh bool, err error) {
	inj := a.injectionsFor(universe)
	if a.univSlots == nil && len(inj) > 0 {
		if a.univSlots, err = a.flat.ResolveInjections(inj); err != nil {
			return nil, false, err
		}
		fresh = true
	}
	return a.univSlots, fresh, nil
}

// LotResult is the record the paper's experiment produces.
type LotResult struct {
	// FirstFail[i] is chip i's first failing pattern, or NeverFails.
	FirstFail []int
	// Passed counts chips that passed every pattern — the exact integer
	// the yields are derived from.
	Passed int
	// TestedYield is the fraction of chips that passed every pattern
	// (what the line actually ships before field returns).
	TestedYield float64
	// TrueYield is the fraction of chips with no faults at all.
	TrueYield float64
	// Escapes counts defective chips that passed all patterns — the
	// bad chips shipped, whose fraction the reject-rate model predicts.
	Escapes int
}

// TestLot tests every chip and aggregates the lot statistics at
// pattern granularity.
func (a *ATE) TestLot(lot defect.Lot) (LotResult, error) {
	return a.testLot(lot, false)
}

// TestLotSteps is TestLot at strobe granularity: FirstFail holds step
// indices (pattern*numOutputs + output).
func (a *ATE) TestLotSteps(lot defect.Lot) (LotResult, error) {
	return a.testLot(lot, true)
}

// testLot runs the configured lot engine and folds the per-chip
// first-fail record into the lot statistics.
func (a *ATE) testLot(lot defect.Lot, steps bool) (LotResult, error) {
	var ff []int
	var err error
	switch a.engine {
	case Serial:
		ff, err = a.serialFirstFail(lot, steps)
	case ChipParallel:
		ff, err = a.chipParallelFirstFail(lot, steps)
	default:
		err = fmt.Errorf("tester: unknown lot engine %v", a.engine)
	}
	if err != nil {
		return LotResult{}, err
	}
	res := LotResult{FirstFail: ff}
	trueGood := 0
	for i, chip := range lot.Chips {
		if ff[i] == NeverFails {
			res.Passed++
			if chip.Defective() {
				res.Escapes++
			}
		}
		if !chip.Defective() {
			trueGood++
		}
	}
	n := float64(len(lot.Chips))
	res.TestedYield = float64(res.Passed) / n
	res.TrueYield = float64(trueGood) / n
	return res, nil
}

// serialFirstFail is the oracle engine: one chip at a time through
// TestChip/TestChipSteps.
func (a *ATE) serialFirstFail(lot defect.Lot, steps bool) ([]int, error) {
	universe := a.injectionsFor(lot.Universe)
	test := (*ATE).TestChip
	if steps {
		test = (*ATE).TestChipSteps
	}
	ff := make([]int, len(lot.Chips))
	for i, chip := range lot.Chips {
		f, err := test(a, chip, universe)
		if err != nil {
			return nil, err
		}
		ff[i] = f
	}
	return ff, nil
}

// FalloutRow is one line of the paper's Table 1.
type FalloutRow struct {
	Coverage   float64 // cumulative fault coverage at the checkpoint
	CumFailed  int     // cumulative number of chips failed
	CumFracton float64 // cumulative fraction of chips failed
}

// FalloutTable reduces a lot result to Table 1 format at the given
// pattern checkpoints, using the coverage ramp from fault simulation.
// checkpoints are pattern indices (inclusive); the coverage column is
// the ramp value at that pattern.
func FalloutTable(res LotResult, curve []faultsim.CoveragePoint, checkpoints []int) ([]FalloutRow, error) {
	if len(curve) == 0 {
		return nil, fmt.Errorf("tester: empty coverage curve")
	}
	rows := make([]FalloutRow, 0, len(checkpoints))
	total := len(res.FirstFail)
	for _, cp := range checkpoints {
		if cp < 0 || cp >= len(curve) {
			return nil, fmt.Errorf("tester: checkpoint %d outside curve (%d patterns)", cp, len(curve))
		}
		failed := 0
		for _, ff := range res.FirstFail {
			if ff != NeverFails && ff <= cp {
				failed++
			}
		}
		rows = append(rows, FalloutRow{
			Coverage:   curve[cp].Coverage,
			CumFailed:  failed,
			CumFracton: float64(failed) / float64(total),
		})
	}
	return rows, nil
}

// FalloutTableRamp is FalloutTable against a change-point-compressed
// coverage ramp (faultsim.SparseRamp): checkpoints are strobe step
// indices in [0, ramp.Steps), and the coverage column is the ramp
// value at that step. This is the LSI-scale path — the dense curve for
// a 7.5k-gate circuit is tens of millions of points, the sparse ramp a
// few thousand.
func FalloutTableRamp(res LotResult, ramp faultsim.Ramp, checkpoints []int) ([]FalloutRow, error) {
	if ramp.Steps == 0 {
		return nil, fmt.Errorf("tester: empty coverage ramp")
	}
	rows := make([]FalloutRow, 0, len(checkpoints))
	total := len(res.FirstFail)
	for _, cp := range checkpoints {
		if cp < 0 || cp >= ramp.Steps {
			return nil, fmt.Errorf("tester: checkpoint %d outside ramp (%d steps)", cp, ramp.Steps)
		}
		failed := 0
		for _, ff := range res.FirstFail {
			if ff != NeverFails && ff <= cp {
				failed++
			}
		}
		rows = append(rows, FalloutRow{
			Coverage:   ramp.At(cp).Coverage,
			CumFailed:  failed,
			CumFracton: float64(failed) / float64(total),
		})
	}
	return rows, nil
}

// FirstFailCoverages converts first-fail indices to first-fail
// *coverages* using the ramp; chips that never fail map to NaN. This is
// the input format the estimate package's bootstrap consumes. The
// result and the curve must share one granularity: a TestLotSteps
// result pairs with the strobe-granular ramp (pattern × output, e.g.
// faultsim.StepCoverageCurve), a TestLot result with the
// pattern-granular one. A first-fail index outside the curve is a
// granularity mismatch and returns an error instead of panicking.
func FirstFailCoverages(res LotResult, curve []faultsim.CoveragePoint) ([]float64, error) {
	out := make([]float64, len(res.FirstFail))
	for i, ff := range res.FirstFail {
		if ff == NeverFails {
			out[i] = math.NaN()
			continue
		}
		if ff < 0 || ff >= len(curve) {
			return nil, fmt.Errorf("tester: first-fail index %d outside the %d-point curve (granularity mismatch?)",
				ff, len(curve))
		}
		out[i] = curve[ff].Coverage
	}
	return out, nil
}
