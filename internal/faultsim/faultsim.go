// Package faultsim measures which single-stuck-at faults a test-pattern
// sequence detects. Three engines share one result contract (identical
// FirstDetect, bit for bit) and one set of plumbing — block packing,
// fault dropping, first-detect bookkeeping — and differ only in how
// they spend the machine word, all on the flat struct-of-arrays core:
//
//   - Serial: one fault at a time, full-circuit re-simulation as a
//     scalar flat walk, no fault dropping — the classic baseline and
//     the reference the other engines are cross-checked against;
//   - PPSFP: parallel-pattern single-fault propagation with fault
//     dropping, restricted to each fault's slot cone
//     (logicsim.FlatSim + FlatConeSet), optionally sharded over a
//     goroutine pool (Options.Workers) — the workhorse used by the
//     experiments;
//   - FaultParallel (PF): the good machine plus up to 255 faulty
//     machines packed into the lanes of a 4-word lane block per
//     pattern (logicsim.WideSim), evaluated over the union of the
//     faults' output cones.
//
// The paper's experiment needs the cumulative coverage curve of an
// ordered pattern set — CoverageCurve produces exactly the "fault
// coverage vs. pattern number" table that §5 feeds to the tester.
package faultsim

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// NotDetected marks a fault no pattern detects.
const NotDetected = -1

// Result reports a fault-simulation run over an ordered pattern set.
type Result struct {
	// FirstDetect[i] is the index of the first pattern detecting fault
	// i of the simulated list, or NotDetected.
	FirstDetect []int
	// Patterns is the number of patterns simulated.
	Patterns int
}

// DetectedBy returns how many faults the first k+1 patterns detect.
func (r Result) DetectedBy(k int) int {
	n := 0
	for _, d := range r.FirstDetect {
		if d != NotDetected && d <= k {
			n++
		}
	}
	return n
}

// Coverage returns the final fault coverage (fraction detected).
func (r Result) Coverage() float64 {
	if len(r.FirstDetect) == 0 {
		return 0
	}
	return float64(r.DetectedBy(r.Patterns-1)) / float64(len(r.FirstDetect))
}

// Engine selects the fault-simulation algorithm.
type Engine int

// Available engines. PPSFP is the zero value on purpose: an
// unconfigured Engine field selects the workhorse.
const (
	PPSFP Engine = iota
	Serial
	FaultParallel
)

// strategy is one entry of the engine registry: the CLI-stable name
// plus the run function, operating on the shared session plumbing.
type strategy struct {
	name string
	run  func(*session) error
}

// registry maps each Engine to its strategy. Every engine consumes the
// same session (packed blocks, good-machine outputs, first-detect
// bookkeeping with dropping), so adding an engine is one entry here
// plus a run function.
var registry = map[Engine]strategy{
	Serial:        {"serial", func(s *session) error { return s.runParallelPattern(false, false, 1) }},
	PPSFP:         {"ppsfp", func(s *session) error { return s.runParallelPattern(true, !s.opt.FullCircuit, s.opt.Workers) }},
	FaultParallel: {"pf", runFaultParallel},
}

// String names the engine.
func (e Engine) String() string {
	if st, ok := registry[e]; ok {
		return st.name
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps an engine name (as printed by String and accepted by
// the CLIs) back to the Engine.
func ParseEngine(name string) (Engine, error) {
	for _, e := range Engines() {
		if registry[e].name == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("faultsim: unknown engine %q", name)
}

// Engines lists every registered engine in a stable order (ascending
// Engine value). It is derived from the registry, so a new registry
// entry is automatically visible to ParseEngine, the CLIs, and the
// cross-engine tests.
func Engines() []Engine {
	out := make([]Engine, 0, len(registry))
	//repolint:ordered — key harvest; sorted ascending below before use
	for e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Options tunes a run; the zero value selects the defaults.
type Options struct {
	// Workers shards the PPSFP engine's fault list over that many
	// goroutines; <= 1 runs it on the calling goroutine. Results are
	// identical either way. Other engines ignore it.
	Workers int
	// FullCircuit disables cone restriction in the PPSFP engine: every
	// faulty pass re-evaluates the whole circuit. This is the pre-cone
	// reference path, kept for cross-checking and for measuring what
	// the cones buy (see BenchmarkEngines).
	FullCircuit bool
}

// Run fault-simulates the ordered patterns against the fault list with
// default options and returns per-fault first-detection indices.
// Detected faults are dropped from further simulation where the engine
// supports it (standard fault dropping); the first-detect indices are
// unaffected by dropping.
func Run(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine) (Result, error) {
	return RunOpts(c, faults, patterns, engine, Options{})
}

// RunOpts is Run with explicit engine options.
func RunOpts(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine, opt Options) (Result, error) {
	s, err := simulate(c, faults, patterns, engine, opt)
	if err != nil {
		return Result{}, err
	}
	return Result{FirstDetect: s.first, Patterns: len(patterns)}, nil
}

// simulate runs the engine over a fresh session and returns the
// session, whose first-detect array is the pattern-level result and
// whose compiled state later passes (RunStepsOpts) may reuse.
func simulate(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine, opt Options) (*session, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("faultsim: no patterns")
	}
	st, ok := registry[engine]
	if !ok {
		return nil, fmt.Errorf("faultsim: unknown engine %v", engine)
	}
	s, err := newSession(c, faults, patterns, opt)
	if err != nil {
		return nil, err
	}
	if err := st.run(s); err != nil {
		return nil, err
	}
	return s, nil
}

// session carries the state every engine shares: the circuit, the fault
// list, lazily packed 64-pattern blocks with their good-machine
// outputs, the lazily built flat form with its slot cones, and the
// first-detect array the engines fill in.
type session struct {
	c        *netlist.Circuit
	faults   []fault.Fault
	patterns []logicsim.Pattern
	opt      Options
	first    []int

	flat       *logicsim.Flat
	flatCones  *logicsim.FlatConeSet
	fsim       *logicsim.FlatSim
	blocks     []block
	blocksGood bool // block.good filled in
}

// block is one packed slab of up to 64 patterns plus its good-machine
// primary-output words.
type block struct {
	pat  logicsim.PatternBlock
	base int // pattern index of bit 0
	good []uint64
}

func newSession(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, opt Options) (*session, error) {
	for i, f := range faults {
		if f.Gate < 0 || f.Gate >= len(c.Gates) {
			return nil, fmt.Errorf("faultsim: fault %d site %d out of range", i, f.Gate)
		}
		if f.Pin >= len(c.Gates[f.Gate].Fanin) {
			return nil, fmt.Errorf("faultsim: fault %d: gate %d has no pin %d", i, f.Gate, f.Pin)
		}
	}
	first := make([]int, len(faults))
	for i := range first {
		first[i] = NotDetected
	}
	return &session{c: c, faults: faults, patterns: patterns, opt: opt, first: first}, nil
}

// flatCircuit returns the circuit's flat compiled form, built on first
// use and cached on the circuit across sessions. The form is immutable
// and shared across workers.
func (s *session) flatCircuit() (*logicsim.Flat, error) {
	if s.flat == nil {
		f, err := logicsim.FlatFor(s.c)
		if err != nil {
			return nil, err
		}
		s.flat = f
	}
	return s.flat, nil
}

// flatSim returns the session's flat walk state, creating it on first
// use. Engines that spawn goroutines create their own per-worker
// FlatSims over the shared Flat instead (FlatSim is not safe for
// concurrent use).
func (s *session) flatSim() (*logicsim.FlatSim, error) {
	if s.fsim == nil {
		f, err := s.flatCircuit()
		if err != nil {
			return nil, err
		}
		s.fsim = logicsim.NewFlatSim(f)
	}
	return s.fsim, nil
}

// flatConeSet returns the circuit's slot-cone set (cached on the
// circuit across sessions) with the cone of every fault site of the
// session compiled: only the sites a fault list uses are ever built.
// Engines call it before spawning workers, whose cone lookups are then
// lock-free reads of cones nobody writes any more.
func (s *session) flatConeSet() (*logicsim.FlatConeSet, error) {
	if s.flatCones == nil {
		cs, err := logicsim.FlatConeSetFor(s.c)
		if err != nil {
			return nil, err
		}
		flat := cs.Flat()
		sites := make([]int32, len(s.faults))
		for i, f := range s.faults {
			sites[i] = int32(flat.SlotOf(f.Gate))
		}
		if err := cs.Ensure(sites); err != nil {
			return nil, err
		}
		s.flatCones = cs
	}
	return s.flatCones, nil
}

// packBlocks packs the pattern sequence into 64-wide blocks, once per
// session. needGood additionally records each block's good-machine
// primary-output words — only the full-circuit diff path reads them;
// the cone engines diff against the simulator's saved values and would
// otherwise pay one wasted good simulation per block.
func (s *session) packBlocks(needGood bool) ([]block, error) {
	if s.blocks == nil {
		for base := 0; base < len(s.patterns); base += 64 {
			end := base + 64
			if end > len(s.patterns) {
				end = len(s.patterns)
			}
			pat, err := logicsim.PackPatterns(s.patterns[base:end])
			if err != nil {
				return nil, err
			}
			s.blocks = append(s.blocks, block{pat: pat, base: base})
		}
	}
	if needGood && !s.blocksGood {
		fsim, err := s.flatSim()
		if err != nil {
			return nil, err
		}
		for i := range s.blocks {
			good, err := fsim.RunInto(s.blocks[i].pat, nil)
			if err != nil {
				return nil, err
			}
			s.blocks[i].good = good
		}
		s.blocksGood = true
	}
	return s.blocks, nil
}

// detect records that fault fi is detected by pattern p, keeping the
// earliest index. Not safe for concurrent use on the same fault index;
// the sharded PPSFP run partitions the fault list so each index has one
// writer.
func (s *session) detect(fi, p int) {
	if s.first[fi] == NotDetected || p < s.first[fi] {
		s.first[fi] = p
	}
}

// alive reports whether fault fi is still undetected (the fault-
// dropping predicate).
func (s *session) alive(fi int) bool { return s.first[fi] == NotDetected }

// anyAlive reports whether any fault of [lo, hi) remains undetected,
// letting dropping engines skip the dead tail of a long pattern set.
func (s *session) anyAlive(lo, hi int) bool {
	for _, d := range s.first[lo:hi] {
		if d == NotDetected {
			return true
		}
	}
	return false
}
