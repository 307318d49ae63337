// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper. Each benchmark regenerates the artifact's data
// series (and, once per run, prints headline numbers so `go test
// -bench=.` doubles as a reproduction log).
package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/sweep"
	"repro/internal/tester"
)

// once guards the one-time headline printouts so -benchtime doesn't
// repeat them.
var once sync.Once

func printHeadlines() {
	fmt.Println("=== reproduction headlines ===")
	m, _ := core.New(0.07, 8)
	f1, _ := m.RequiredCoverage(0.01)
	f2, _ := m.RequiredCoverage(0.001)
	fmt.Printf("§7: y=0.07 n0=8: f(r=1%%)=%.3f (paper ~0.80), f(r=0.1%%)=%.3f (paper ~0.95)\n", f1, f2)
	fit, _ := estimate.FitN0(estimate.PaperTable1.Curve, estimate.PaperTable1.Yield)
	slope, _ := estimate.SlopeN0(estimate.PaperTable1.Curve[:1], estimate.PaperTable1.Yield, 0.06)
	fmt.Printf("Fig. 5: fitted n0=%.2f (paper ~8), slope n0=%.2f (paper 8.8)\n", fit.N0, slope.N0)
}

// BenchmarkFig1 regenerates the Fig. 1 reject-rate curves.
func BenchmarkFig1(b *testing.B) {
	once.Do(printHeadlines)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates the required-coverage family at r = 0.01.
func BenchmarkFig2(b *testing.B) {
	benchReqCov(b, 0.01)
}

// BenchmarkFig3 regenerates the required-coverage family at r = 0.005.
func BenchmarkFig3(b *testing.B) {
	benchReqCov(b, 0.005)
}

// BenchmarkFig4 regenerates the required-coverage family at r = 0.001.
func BenchmarkFig4(b *testing.B) {
	benchReqCov(b, 0.001)
}

func benchReqCov(b *testing.B, r float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RequiredCoverageFigure(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Fit regenerates the Fig. 5 n0 determination from the
// paper's Table 1 data (curve fit + slope).
func BenchmarkFig5Fit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := estimate.FitN0(estimate.PaperTable1.Curve, estimate.PaperTable1.Yield); err != nil {
			b.Fatal(err)
		}
		if _, err := estimate.SlopeN0(estimate.PaperTable1.Curve[:1], estimate.PaperTable1.Yield, 0.06); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the q0(n) approximation comparison.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig6()
		if len(res.Curves) != 15 {
			b.Fatal("wrong curve count")
		}
	}
}

// BenchmarkEngines is the fault-simulation engine matrix: every engine
// against paper-scale circuits, 256 random patterns each, on the
// collapsed fault list. ppsfp-full is the pre-cone full-circuit
// reference path (the seed implementation); comparing it with ppsfp
// isolates what the cone restriction buys. The ns/fault-pattern metric
// is the engine-comparison number quoted in the README.
func BenchmarkEngines(b *testing.B) {
	circuits := []struct {
		name  string
		build func() (*netlist.Circuit, error)
	}{
		{"mul8", func() (*netlist.Circuit, error) { return netlist.ArrayMultiplier(8) }},
		{"cmp16", func() (*netlist.Circuit, error) { return netlist.Comparator(16) }},
	}
	type benchEngine struct {
		name   string
		engine faultsim.Engine
		opt    faultsim.Options
	}
	// Every registered engine is benchmarked automatically; ppsfp-full
	// is the seed full-circuit reference path kept for comparison.
	engines := []benchEngine{
		{"ppsfp-full", faultsim.PPSFP, faultsim.Options{FullCircuit: true}},
	}
	for _, e := range faultsim.Engines() {
		engines = append(engines, benchEngine{e.String(), e, faultsim.Options{}})
	}
	for _, en := range engines {
		for _, ce := range circuits {
			b.Run(en.name+"/"+ce.name, func(b *testing.B) {
				c, err := ce.build()
				if err != nil {
					b.Fatal(err)
				}
				reps := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
				rng := rand.New(rand.NewSource(1))
				patterns := make([]logicsim.Pattern, 256)
				for i := range patterns {
					p := make(logicsim.Pattern, len(c.Inputs))
					for j := range p {
						p[j] = rng.Intn(2) == 1
					}
					patterns[i] = p
				}
				// One warm-up run outside the timer so -benchtime=1x
				// still reports steady state (the per-circuit cone
				// set is built once and cached on the circuit).
				if _, err := faultsim.RunOpts(c, reps, patterns, en.engine, en.opt); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := faultsim.RunOpts(c, reps, patterns, en.engine, en.opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(
					float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(reps)*len(patterns)),
					"ns/fault-pattern")
				// Circuit scale travels with the measurement so bench
				// artifacts from different workload generations stay
				// comparable (benchjson records these as metadata).
				b.ReportMetric(float64(len(c.Gates)), "gates")
				b.ReportMetric(float64(len(reps)), "faults")
				b.ReportMetric(float64(len(patterns)), "patterns")
			})
		}
	}
}

// BenchmarkLotEngines is the ATE lot-engine matrix, the counterpart of
// BenchmarkEngines for the lot-testing path: every lot engine first-
// fail-tests the same paper-shaped lot (2000 chips, y=0.07, n0=8.8)
// against a production pattern set, at strobe granularity. The chips/s
// metric is the campaign-throughput number the chip-parallel engine is
// judged on (the acceptance bar is ≥2x serial on mul8). mul8 and cmp16
// are small enough that a batch's faults disturb most of the circuit;
// lsi1k (the lsi-smoke preparation: a 150-class sampled universe over
// the 1k-gate fixture) is the LSI regime, where a chip's faults disturb
// a few percent of it and the toy circuits hide what a lot costs.
func BenchmarkLotEngines(b *testing.B) {
	production := func(build func() (*netlist.Circuit, error)) func() (*netlist.Circuit, []fault.Fault, []logicsim.Pattern, error) {
		return func() (*netlist.Circuit, []fault.Fault, []logicsim.Pattern, error) {
			c, err := build()
			if err != nil {
				return nil, nil, nil, err
			}
			patterns, err := atpg.ProductionTests(c, 96, 96, 1981)
			return c, fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c))), patterns, err
		}
	}
	workloads := []struct {
		name    string
		prepare func() (*netlist.Circuit, []fault.Fault, []logicsim.Pattern, error)
	}{
		{"mul8", production(func() (*netlist.Circuit, error) { return netlist.ArrayMultiplier(8) })},
		{"cmp16", production(func() (*netlist.Circuit, error) { return netlist.Comparator(16) })},
		{"lsi1k", func() (*netlist.Circuit, []fault.Fault, []logicsim.Pattern, error) {
			pr, err := circuits.NewCache().Get("lsi1k",
				circuits.Params{RandomPatterns: 48, SampleFaults: 150, BacktrackLimit: 50, Seed: 1981})
			if err != nil {
				return nil, nil, nil, err
			}
			return pr.Circuit, pr.Universe, pr.Patterns, nil
		}},
	}
	const chips = 2000
	for _, e := range tester.LotEngines() {
		for _, wl := range workloads {
			b.Run(e.String()+"/"+wl.name, func(b *testing.B) {
				c, universe, patterns, err := wl.prepare()
				if err != nil {
					b.Fatal(err)
				}
				a, err := tester.NewEngine(c, patterns, e)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				lot, err := defect.GenerateLotFromModel(0.07, 8.8, universe, chips, rng)
				if err != nil {
					b.Fatal(err)
				}
				// Warm-up outside the timer (cone/levelization caches,
				// universe-conversion cache).
				if _, err := a.TestLotSteps(lot); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := a.TestLotSteps(lot); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(chips*b.N)/b.Elapsed().Seconds(), "chips/s")
				b.ReportMetric(float64(len(c.Gates)), "gates")
				b.ReportMetric(float64(len(universe)), "faults")
				b.ReportMetric(float64(len(patterns)), "patterns")
			})
		}
	}
}

// BenchmarkTable1 runs the full synthetic lot experiment: circuit,
// fault collapsing, test generation, strobe-granular fault simulation,
// lot manufacture, ATE testing, fallout reduction and n0 recovery.
// This is the headline end-to-end benchmark.
func BenchmarkTable1(b *testing.B) {
	c, err := netlist.ArrayMultiplier(5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiment.DefaultTable1Config()
	cfg.Circuit = c
	cfg.RandomPatterns = 96
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunTable1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Physical is BenchmarkTable1 with the lot generated
// through the physical-defect layer (ablation: defect clustering and
// fault multiplicity instead of the direct statistical model).
func BenchmarkTable1Physical(b *testing.B) {
	c, err := netlist.ArrayMultiplier(5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiment.DefaultTable1Config()
	cfg.Circuit = c
	cfg.RandomPatterns = 96
	cfg.Physical = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunTable1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWadsackComparison regenerates the §7 model comparison.
func BenchmarkWadsackComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.WadsackComparison(0.07, 8, []float64{0.01, 0.005, 0.001}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShrinkStudy regenerates the §8 fine-line prediction.
func BenchmarkShrinkStudy(b *testing.B) {
	scales := []float64{1, 0.9, 0.8, 0.7, 0.6, 0.5}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ShrinkStudy(2.659, 0.5, 8, 0.001, scales); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateRejectRate runs the end-to-end Eq. 8 validation on
// a modest lot.
func BenchmarkValidateRejectRate(b *testing.B) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ValidateRejectRate(c, 0.3, 6, 2000, []float64{0.7}, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollapseStudy runs the fault-collapsing ablation.
func BenchmarkCollapseStudy(b *testing.B) {
	c, err := netlist.ArrayMultiplier(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.CollapseStudy(c, 128, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorBias runs the estimator ablation (curve fit vs
// slope) over a small batch of synthetic lots.
func BenchmarkEstimatorBias(b *testing.B) {
	points := []struct{ Y, N0 float64 }{{0.07, 8.8}, {0.5, 8.8}}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.EstimatorBias(points, 277, 10, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYieldN0Study runs the paper's proposed future-work
// experiment: the empirical yield↔n0 relationship over a defect-density
// sweep (smaller lots than the default to keep the benchmark quick).
func BenchmarkYieldN0Study(b *testing.B) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		b.Fatal(err)
	}
	d0as := []float64{0.5, 1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.YieldN0Study(c, d0as, 3, 500, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepared measures what the circuits-layer artifact cache
// amortizes: "cold" is the full once-per-circuit preparation (fault
// collapsing, production ATPG, strobe-granular coverage ramp), "cached"
// is the hit path a campaign's lots, replicates, and workers actually
// take. The ratio is the per-circuit cost the multi-workload sweep
// pays exactly once. "cold-lsi1k-sampled" is the cold preparation at
// LSI scale (the lsi-smoke knobs: 48 random patterns, 150 sampled
// fault classes, backtrack limit 50), where PODEM and the fault-site
// cones — which barely register on mul5 — dominate.
func BenchmarkPrepared(b *testing.B) {
	params := circuits.Params{RandomPatterns: 64, Seed: 1981}
	const spec = "mul5"
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh cache each iteration forces the build.
			if _, err := circuits.NewCache().Get(spec, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-lsi1k-sampled", func(b *testing.B) {
		lsi := circuits.Params{RandomPatterns: 48, SampleFaults: 150, BacktrackLimit: 50, Seed: 1981}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := circuits.NewCache().Get("lsi1k", lsi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := circuits.NewCache()
		if _, err := cache.Get(spec, params); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Get(spec, params); err != nil {
				b.Fatal(err)
			}
		}
		if cache.Builds() != 1 {
			b.Fatalf("cache rebuilt: %d builds", cache.Builds())
		}
	})
}

// BenchmarkSweep measures the Monte-Carlo sweep engine's replicate
// throughput as the worker pool scales: the once-per-circuit work
// (ATPG, coverage ramp) is excluded via a pre-built Sweeper, so the
// replicates/s metric isolates the fan-out hot path (lot manufacture,
// first-fail testing, per-cut reduction).
func BenchmarkSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := sweep.Config{
				Circuits:       []string{"mul5"},
				Yields:         []float64{0.07},
				N0s:            []float64{8.8},
				LotSizes:       []int{500},
				Coverages:      []float64{0.5, 0.8},
				Replicates:     32,
				Workers:        workers,
				RandomPatterns: 64,
				Seed:           1981,
			}
			s, err := sweep.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Replicates*b.N)/b.Elapsed().Seconds(), "replicates/s")
		})
	}
}
