package circuits

import (
	"fmt"
	"sort"

	"repro/internal/atpg"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/tester"
)

// Params are the test-program knobs that shape a Prepared artifact.
// Two preparations with equal Params over the same circuit are
// interchangeable, which is what lets the Cache key on (spec, Params).
type Params struct {
	// RandomPatterns seeds the ordered production test set before the
	// deterministic PODEM cleanup.
	RandomPatterns int
	// Seed makes the test program reproducible.
	Seed int64
	// Engine selects the fault-simulation engine for ATPG dropping and
	// the coverage ramp; every engine yields an identical ramp, so this
	// only affects speed.
	Engine faultsim.Engine
	// SimWorkers shards the faultsim.PPSFP engine over that many
	// goroutines (0 or 1 = the calling goroutine); other engines ignore
	// it.
	SimWorkers int
	// BacktrackLimit bounds PODEM's search per fault during cleanup
	// ATPG (0 = the generator's default). Faults that exhaust the
	// budget are tallied as Aborted instead of stalling the whole
	// preparation — the knob that makes ISCAS-scale circuits finish.
	BacktrackLimit int
	// SampleFaults, when > 0, prepares against a deterministic random
	// sample of at most this many collapsed fault classes instead of
	// the full universe. ATPG, the coverage ramp, and lot generation
	// all operate coherently on the sample; CoverageCILow/High bound
	// the true whole-universe coverage. Zero means no sampling.
	SampleFaults int
}

// Validate rejects parameter values no preparation could honor.
func (p Params) Validate() error {
	if p.RandomPatterns < 0 {
		return fmt.Errorf("circuits: random pattern count must be >= 0, got %d", p.RandomPatterns)
	}
	if p.SimWorkers < 0 {
		return fmt.Errorf("circuits: sim worker count must be >= 0, got %d", p.SimWorkers)
	}
	if p.BacktrackLimit < 0 {
		return fmt.Errorf("circuits: backtrack limit must be >= 0, got %d", p.BacktrackLimit)
	}
	if p.SampleFaults < 0 {
		return fmt.Errorf("circuits: fault sample size must be >= 0, got %d", p.SampleFaults)
	}
	return nil
}

// Prepared is the once-per-circuit artifact everything downstream
// consumes: the validated circuit, its (possibly sampled) collapsed
// fault universe, the ordered production test program, and the
// strobe-granular coverage ramp. It is read-only after Prepare, so any
// number of lots, replicates, and worker goroutines may share one
// instance; per-worker mutable state (the ATE's simulator) is cloned
// via NewATE.
type Prepared struct {
	Circuit *netlist.Circuit
	Stats   netlist.Stats
	Params  Params
	// UniverseSize is the size of the full collapsed fault universe
	// (one representative per equivalence class), before any sampling.
	UniverseSize int
	// Sampled reports whether Universe is a proper random sample of
	// the full universe (Params.SampleFaults was set and smaller than
	// UniverseSize).
	Sampled bool
	// Universe is the working fault list: the full collapsed universe,
	// or the deterministic sample when Sampled.
	Universe []fault.Fault
	// Patterns is the ordered production test set: bring-up and
	// rising-weight random first (the gentle early ramp before the
	// paper's first strobe), uniform random, then PODEM cleanup.
	Patterns []logicsim.Pattern
	// ATPG tallies the per-fault PODEM outcomes over Universe:
	// Detected + Untestable + Aborted = Faults. Aborted > 0 means the
	// backtrack budget truncated the search somewhere.
	ATPG atpg.Tally
	// Curve is the cumulative coverage ramp at strobe granularity
	// (pattern × output), change-point compressed so memory stays
	// bounded at LSI scale; the bookkeeping the Sentry used for
	// Table 1.
	Curve faultsim.Ramp
	// Result is the full-program fault-simulation outcome over
	// Universe.
	Result faultsim.Result
	// CoverageCILow/CoverageCIHigh bound the true whole-universe final
	// coverage at 95% confidence. Without sampling both collapse to
	// the exact final coverage.
	CoverageCILow  float64
	CoverageCIHigh float64
}

// Prepare performs the once-per-circuit work as a staged pipeline:
// stats, fault collapsing and optional sampling, budgeted test-set
// construction (ATPG), the sparse strobe-granular coverage ramp, and
// the coverage confidence interval. It is the uncached entry point;
// campaigns share artifacts through a Cache.
func Prepare(c *netlist.Circuit, p Params) (*Prepared, error) {
	if c == nil {
		return nil, fmt.Errorf("circuits: nil circuit")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Only the faultsim sessions below read the circuit's cone set; the
	// artifact holds the circuit, so drop the set rather than keep it
	// alive for every lot after.
	defer logicsim.ReleaseFlatCones(c)
	// Stage 1: structural validation and stats.
	stats, err := c.ComputeStats()
	if err != nil {
		return nil, err
	}
	// Stage 2: fault universe — collapse, then optionally sample. The
	// sample is drawn before ATPG so generation, dropping, the ramp,
	// and lot generation all see the same fault list.
	full := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	universe := full
	sampled := false
	if p.SampleFaults > 0 && p.SampleFaults < len(full) {
		universe = sampleFaults(full, p.SampleFaults, p.Seed)
		sampled = true
	}
	// Stage 3: budgeted production test program over the working
	// universe.
	opts := faultsim.Options{Workers: p.SimWorkers}
	patterns, tally, err := atpg.ProductionTestsBudget(c, p.RandomPatterns/2, p.RandomPatterns/2,
		p.Seed, universe, p.BacktrackLimit, p.Engine, opts)
	if err != nil {
		return nil, err
	}
	// Stage 4: strobe-granular simulation and the sparse ramp.
	simRes, err := faultsim.RunStepsOpts(c, universe, patterns, p.Engine, opts)
	if err != nil {
		return nil, err
	}
	ramp := faultsim.SparseRamp(simRes)
	// Stage 5: bound the true whole-universe coverage.
	detected := 0
	for _, d := range simRes.FirstDetect {
		if d != faultsim.NotDetected {
			detected++
		}
	}
	var ciLo, ciHi float64
	if sampled {
		ciLo, ciHi, err = dist.SampleCoverageCI(len(full), len(universe), detected, 0.95)
		if err != nil {
			return nil, fmt.Errorf("circuits: coverage interval: %w", err)
		}
	} else {
		ciLo = simRes.Coverage()
		ciHi = ciLo
	}
	return &Prepared{
		Circuit:        c,
		Stats:          stats,
		Params:         p,
		UniverseSize:   len(full),
		Sampled:        sampled,
		Universe:       universe,
		Patterns:       patterns,
		ATPG:           tally,
		Curve:          ramp,
		Result:         simRes,
		CoverageCILow:  ciLo,
		CoverageCIHigh: ciHi,
	}, nil
}

// sampleFaults draws m faults from full without replacement, using a
// private splitmix64 stream derived from seed — no global rand state,
// so preparation stays reproducible regardless of what else the
// process is doing. The sample keeps universe order (indices sorted
// ascending), which keeps fault-index-based bookkeeping stable.
func sampleFaults(full []fault.Fault, m int, seed int64) []fault.Fault {
	idx := make([]int, len(full))
	for i := range idx {
		idx[i] = i
	}
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0x7552
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < m; i++ {
		j := i + int(next()%uint64(len(idx)-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := idx[:m]
	sort.Ints(chosen)
	out := make([]fault.Fault, m)
	for i, id := range chosen {
		out[i] = full[id]
	}
	return out
}

// PrepareSpec resolves a unit spec and prepares it, uncached.
func PrepareSpec(spec string, p Params) (*Prepared, error) {
	c, err := Resolve(spec)
	if err != nil {
		return nil, err
	}
	return Prepare(c, p)
}

// FinalCoverage returns the pattern set's final fault coverage over
// the working universe (the sample's coverage when Sampled; see
// CoverageCILow/High for the whole-universe bound).
func (pr *Prepared) FinalCoverage() float64 { return pr.Result.Coverage() }

// FaultCount returns the size of the working fault universe.
func (pr *Prepared) FaultCount() int { return len(pr.Universe) }

// NewATE builds a tester over the shared pattern set. One ATE serves
// any number of sequential calls; concurrent consumers clone one each.
func (pr *Prepared) NewATE() (*tester.ATE, error) {
	return tester.New(pr.Circuit, pr.Patterns)
}
