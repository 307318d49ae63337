package main

import (
	"repro/internal/circuits"
	"repro/internal/sweep"
)

// size holds every input dimension of the three workloads, so the
// smoke test runs the same code at a tiny size.
type size struct {
	// bigSpec is the LSI workload of prepare-cold and sweep-warm, and
	// prep its preparation knobs (Seed is set per preparation).
	bigSpec string
	prep    circuits.Params

	// The sweep-warm campaign grid on bigSpec.
	sweepYields []float64
	sweepN0s    []float64
	sweepLots   []int
	sweepCuts   []float64
	sweepReps   int
	// warmSeeds is how many seeds' artifacts a sweep-warm run fills
	// and rotates its campaigns over.
	warmSeeds int

	// The daemon-mul8 campaign grid on smallSpec.
	smallSpec    string
	daemonYields []float64
	daemonN0s    []float64
	daemonLots   []int
	daemonCuts   []float64
	daemonReps   int
	daemonRandom int

	// setupRepeats is how many times each workload sets up per run;
	// setup_s is their median.
	setupRepeats int
	// tracedReps is the replicate count per cell of the traced
	// one-goroutine lot pass, and tracedCampaigns the number of daemon
	// and in-process campaigns the traced run times.
	tracedReps      int
	tracedCampaigns int
}

// fullSize is the benchmark as defined: the lsi4k fixture sampled to
// 150 fault classes, and paper-scale mul8 campaigns.
func fullSize() size {
	return size{
		bigSpec:     "lsi4k",
		prep:        circuits.Params{RandomPatterns: 48, SampleFaults: 150, BacktrackLimit: 50},
		sweepYields: []float64{0.07, 0.2},
		sweepN0s:    []float64{3, 8.8},
		sweepLots:   []int{2000},
		// The sampled lsi4k program tops out near 0.37 coverage.
		sweepCuts: []float64{0.15, 0.3},
		sweepReps: 2,
		warmSeeds: 4,

		smallSpec:    "mul8",
		daemonYields: []float64{0.07, 0.2, 0.5},
		daemonN0s:    []float64{3, 8.8},
		daemonLots:   []int{500, 2000},
		daemonCuts:   []float64{0.5, 0.8, 0.94},
		daemonReps:   20,
		daemonRandom: 192,

		setupRepeats:    31,
		tracedReps:      2,
		tracedCampaigns: 3,
	}
}

// prepParams is the bigSpec preparation for one workload seed. Engine
// and SimWorkers stay at the program defaults.
func (s size) prepParams(seed int64) circuits.Params {
	p := s.prep
	p.Seed = seed
	return p
}

// sweepConfig is the sweep-warm campaign over a filled store. Engine,
// LotEngine, SimWorkers and Workers stay at the program defaults.
func (s size) sweepConfig(seed int64, storeDir string) sweep.Config {
	return sweep.Config{
		Circuits:       []string{s.bigSpec},
		Yields:         s.sweepYields,
		N0s:            s.sweepN0s,
		LotSizes:       s.sweepLots,
		Coverages:      s.sweepCuts,
		Replicates:     s.sweepReps,
		RandomPatterns: s.prep.RandomPatterns,
		Seed:           seed,
		BacktrackLimit: s.prep.BacktrackLimit,
		SampleFaults:   s.prep.SampleFaults,
		PreparedDir:    storeDir,
	}
}

// daemonRequest is the wire form of one daemon-mul8 campaign: only the
// grid and the seed, so engine, lot engine and worker counts resolve
// to the daemon's defaults.
type daemonRequest struct {
	Circuits       []string  `json:"circuits"`
	Yields         []float64 `json:"yields"`
	N0s            []float64 `json:"n0s"`
	LotSizes       []int     `json:"lot_sizes"`
	Coverages      []float64 `json:"coverages"`
	Replicates     int       `json:"replicates"`
	RandomPatterns int       `json:"random_patterns"`
	Seed           int64     `json:"seed"`
}

func (s size) daemonRequest(seed int64) daemonRequest {
	return daemonRequest{
		Circuits:       []string{s.smallSpec},
		Yields:         s.daemonYields,
		N0s:            s.daemonN0s,
		LotSizes:       s.daemonLots,
		Coverages:      s.daemonCuts,
		Replicates:     s.daemonReps,
		RandomPatterns: s.daemonRandom,
		Seed:           seed,
	}
}

// config is the in-process sweep.Config the daemon builds from r.
func (r daemonRequest) config() sweep.Config {
	return sweep.Config{
		Circuits:       r.Circuits,
		Yields:         r.Yields,
		N0s:            r.N0s,
		LotSizes:       r.LotSizes,
		Coverages:      r.Coverages,
		Replicates:     r.Replicates,
		RandomPatterns: r.RandomPatterns,
		Seed:           r.Seed,
	}
}

// chips is the number of chips one campaign manufactures and tests.
func chips(cfg sweep.Config) int {
	per := 0
	for _, n := range cfg.LotSizes {
		per += n
	}
	return per * len(cfg.Yields) * len(cfg.N0s) * cfg.Replicates * len(cfg.Circuits)
}

// campaignSeed derives the k-th daemon campaign's seed from the
// workload seed with the splitmix64 finalizer, so consecutive
// campaigns get distinct fingerprints and the daemon's dedupe never
// answers from an earlier job.
func campaignSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
