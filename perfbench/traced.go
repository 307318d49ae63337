package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/atpg"
	"repro/internal/campaign"
	"repro/internal/circuits"
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

// lotLayerMetrics are reported once per lot circuit, suffixed with it.
var lotLayerMetrics = []string{
	"tester.ate_build_s", "defect.generate_s_per_lot", "tester.test_lot_s_per_lot",
	"tester.chips_per_s", "tester.alloc_kib_per_lot", "tester.fallout_s_per_lot",
	"estimate.fit_s_per_lot", "estimate.fit_ok_frac", "campaign.fold_s_per_task",
}

// lotCircuits name the two lot passes: the sweep-warm grid on the LSI
// fixture and the daemon-mul8 grid on the multiplier.
var lotCircuits = []string{"lsi4k", "mul8"}

// perLayerMetrics lists every metric of a traced run. Every traced run
// reports all of them, whichever workload it names; the workload only
// selects which section the tracing overhead is measured on.
func perLayerMetrics() []string {
	names := []string{
		"netlist.parse_s", "fault.collapse_s", "fault.classes",
		"logicsim.flat_cones_s", "logicsim.flat_cones_alloc_mib", "logicsim.flat_cones_retained_mib",
		"logicsim.legacy_cones_s", "logicsim.legacy_cones_alloc_mib", "logicsim.legacy_cones_retained_mib",
		"atpg.production_s", "atpg.patterns", "atpg.detected", "atpg.untestable", "atpg.aborted", "atpg.abort_frac",
		"faultsim.ramp_s", "faultsim.ramp_points",
		"circuits.store_save_s", "circuits.store_load_s", "circuits.store_bytes", "circuits.prepare_gap_s",
	}
	for _, circ := range lotCircuits {
		for _, m := range lotLayerMetrics {
			names = append(names, m+"."+circ)
		}
	}
	names = append(names,
		"campaign.checkpoint_s", "campaign.checkpoint_bytes", "sweep.new_s", "sweep.run_with_s",
		"sweep.parallel_eff", "sweepd.submit_s", "sweepd.first_event_s", "sweepd.stream_events",
		"sweepd.results_s", "sweepd.overhead_s", "trace.overhead_s")
	for _, l := range layers {
		names = append(names, l+".self_s")
	}
	return names
}

// sweepdCheckpointEvery is cmd/sweepd's -checkpoint-every default, the
// cadence the daemon's campaigns checkpoint at.
const sweepdCheckpointEvery = 20

// runTraced times the public calls into every layer from outside the
// program, in order: the staged prepare of the LSI fixture, the store
// round trip, one-goroutine lot passes on both lot circuits, one
// parallel sweep-warm campaign, and daemon campaigns next to their
// in-process equivalents. It then runs the named workload's own section
// again with tracing off; the wall-time difference is trace.overhead_s.
func runTraced(cfg runConfig) (*report, error) {
	if !slices.Contains([]string{"prepare-cold", "sweep-warm", "daemon-mul8"}, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want prepare-cold, sweep-warm or daemon-mul8)", cfg.workload)
	}
	rep := newReport(cfg, true)
	tr := newTracer()
	rep.tr = tr
	sz := cfg.size
	dir, cleanup, err := cfg.tempDir("traced-")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// The untraced reference Prepare: its Universe feeds the staged
	// calls, and its time is what the stage spans are compared with.
	p := sz.prepParams(cfg.seed)
	var ref *circuits.Prepared
	var refTime time.Duration
	tr.newOp()
	_, err = tr.do("perfbench", "untraced circuits.Prepare", func() error {
		c, err := circuits.Resolve(sz.bigSpec)
		if err != nil {
			return err
		}
		start := time.Now()
		ref, err = circuits.Prepare(c, p)
		refTime = time.Since(start)
		return err
	})
	if !rep.op("reference prepare", err) {
		return rep, nil
	}

	// Prepare layers.
	st, err := staged(tr, sz.bigSpec, p, ref.Universe)
	if !rep.op("staged prepare", err) {
		return rep, nil
	}
	rep.check("staged patterns and first-detects equal Prepare's",
		programDigest(st.patterns, st.result) == programDigest(ref.Patterns, ref.Result))
	rep.check("staged tally equals Prepare's", st.tally == ref.ATPG)
	rep.check("tally partitions the universe",
		st.tally.Detected+st.tally.Untestable+st.tally.Aborted == st.tally.Faults && st.tally.Faults == len(ref.Universe))
	rep.gate("netlist.parse_s", "s", st.parse.Seconds(), 1)
	rep.gate("fault.collapse_s", "s", st.collapse.Seconds(), 1)
	rep.gate("fault.classes", "count", float64(st.classes), 1)
	rep.gate("logicsim.flat_cones_s", "s", st.flat.Seconds(), 1)
	rep.gate("logicsim.flat_cones_alloc_mib", "MiB", st.flatAlloc, 1)
	rep.gate("logicsim.flat_cones_retained_mib", "MiB", st.flatRetained, 1)
	rep.gate("logicsim.legacy_cones_s", "s", st.legacy.Seconds(), 1)
	rep.gate("logicsim.legacy_cones_alloc_mib", "MiB", st.legacyAlloc, 1)
	rep.gate("logicsim.legacy_cones_retained_mib", "MiB", st.legacyRetained, 1)
	rep.gate("atpg.production_s", "s", st.atpg.Seconds(), 1)
	rep.gate("atpg.patterns", "count", float64(len(st.patterns)), 1)
	rep.gate("atpg.detected", "count", float64(st.tally.Detected), 1)
	rep.gate("atpg.untestable", "count", float64(st.tally.Untestable), 1)
	rep.gate("atpg.aborted", "count", float64(st.tally.Aborted), 1)
	rep.gate("atpg.abort_frac", "ratio", float64(st.tally.Aborted)/float64(max(st.tally.Faults, 1)), 1)
	rep.gate("faultsim.ramp_s", "s", st.ramp.Seconds(), 1)
	rep.gate("faultsim.ramp_points", "count", float64(st.rampPoints), 1)
	spans := st.stats + st.collapse + st.flat + st.legacy + st.atpg + st.ramp
	rep.gate("circuits.prepare_gap_s", "s", (refTime - spans).Seconds(), 1)
	rep.show("prepare_s", "s", refTime.Seconds(), 1, "the untraced reference Prepare")

	// Store round trip of the reference artifact. As in sweep-warm, the
	// lsi4k lots below run on the decoded artifact, and the filled store
	// serves the parallel sweep-warm campaign.
	storeDir := filepath.Join(dir, "store")
	trip, err := roundTrip(rep, tr, storeDir, ref)
	if !rep.op("store round trip", err) {
		return rep, nil
	}
	warm := trip.loaded
	rep.gate("circuits.store_save_s", "s", trip.save.Seconds(), 1)
	rep.gate("circuits.store_load_s", "s", trip.load.Seconds(), 1)
	rep.gate("circuits.store_bytes", "bytes", float64(len(trip.artifact)), 1)

	// Lot layers, on one goroutine, through the calls sweep makes.
	small, err := circuits.PrepareSpec(sz.smallSpec, circuits.Params{RandomPatterns: sz.daemonRandom, Seed: cfg.seed})
	if !rep.op("prepare "+sz.smallSpec, err) {
		return rep, nil
	}
	warmGrid := grid{sz.sweepYields, sz.sweepN0s, sz.sweepLots, sz.sweepCuts}
	daemonGrid := grid{sz.daemonYields, sz.daemonN0s, sz.daemonLots, sz.daemonCuts}
	var warmLots lotStats
	for i, pass := range []struct {
		prep *circuits.Prepared
		g    grid
	}{{warm, warmGrid}, {small, daemonGrid}} {
		ls, err := lotPass(rep, tr, pass.prep, pass.g, cfg.seed, sz.tracedReps)
		if !rep.op("lot pass "+lotCircuits[i], err) {
			return rep, nil
		}
		ls.gate(rep, lotCircuits[i])
		if i == 0 {
			warmLots = ls
		}
	}

	// Parallel efficiency of one sweep-warm campaign at the default
	// worker count against the one-goroutine lot rate.
	scfg := sz.sweepConfig(cfg.seed, storeDir)
	var swept time.Duration
	tr.newOp()
	_, err = tr.do("sweep", "sweep.New (warm store)", func() error {
		sw, err := sweep.New(scfg)
		if err != nil {
			return err
		}
		swept, err = tr.do("sweep", "Sweeper.RunWith (sweep-warm)", func() error {
			_, err := sw.RunWith(sweep.RunOptions{})
			return err
		})
		return err
	})
	if !rep.op("sweep-warm campaign", err) {
		return rep, nil
	}
	parallel := float64(chips(scfg)) / swept.Seconds()
	rep.gate("sweep.parallel_eff", "ratio", parallel/(float64(runtime.GOMAXPROCS(0))*warmLots.chipsPerS()), 1)
	rep.show("chips_per_s", "chips/s", parallel, 1, "one sweep-warm campaign")

	// Daemon campaigns and their in-process equivalents.
	d, ds, err := daemonPass(rep, tr, cfg, dir)
	if d != nil {
		defer d.stop()
	}
	if !rep.op("daemon pass", err) {
		return rep, nil
	}
	ds.gate(rep)

	// Tracing overhead: the workload's own section again, tracing off.
	off := &tracer{}
	var on, untraced time.Duration
	switch cfg.workload {
	case "prepare-cold":
		on = st.wall
		var s stagedResult
		s, err = staged(off, sz.bigSpec, p, ref.Universe)
		untraced = s.wall
	case "sweep-warm":
		on = warmLots.wall
		var ls lotStats
		ls, err = lotPass(rep, off, warm, warmGrid, cfg.seed, sz.tracedReps)
		untraced = ls.wall
	case "daemon-mul8":
		on = ds.wall
		var s daemonStats
		s, err = daemonCampaigns(rep, off, d, cfg, len(ds.totals))
		untraced = s.wall
	}
	if !rep.op("untraced section", err) {
		return rep, nil
	}
	rep.gate("trace.overhead_s", "s", (on - untraced).Seconds(), 1)
	rep.show("traced_section_s", "s", on.Seconds(), 1, cfg.workload+" section, tracing on")
	rep.show("untraced_section_s", "s", untraced.Seconds(), 1, cfg.workload+" section, tracing off")

	self := tr.selfTimes()
	for _, l := range layers {
		rep.gate(l+".self_s", "s", self[l], 1)
	}
	return rep, nil
}

// stagedResult is one staged prepare: each stage's span and outputs.
type stagedResult struct {
	parse, stats, collapse, flat, legacy, atpg, ramp time.Duration
	wall                                             time.Duration
	classes, rampPoints                              int
	flatAlloc, flatRetained                          float64
	legacyAlloc, legacyRetained                      float64
	patterns                                         []logicsim.Pattern
	tally                                            atpg.Tally
	result                                           faultsim.Result
}

// staged runs Prepare's stages as separate public calls on a freshly
// resolved circuit. The cone sets are cached on the circuit, so they
// are built first and their cost stays out of the atpg span. universe
// is the working fault list of an untraced Prepare with the same
// params (Prepare samples it privately).
func staged(tr *tracer, spec string, p circuits.Params, universe []fault.Fault) (stagedResult, error) {
	var s stagedResult
	begin := time.Now()
	tr.newOp()
	_, err := tr.do("perfbench", "staged prepare", func() error {
		var c *netlist.Circuit
		var err error
		if s.parse, err = tr.do("netlist", "circuits.Resolve", func() error {
			c, err = circuits.Resolve(spec)
			return err
		}); err != nil {
			return err
		}
		if s.stats, err = tr.do("netlist", "Circuit.ComputeStats", func() error {
			_, err := c.ComputeStats()
			return err
		}); err != nil {
			return err
		}
		s.collapse, _ = tr.do("fault", "fault.AllFaults+CollapseEquivalence+Reps", func() error {
			s.classes = len(fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c))))
			return nil
		})
		if s.flat, s.flatAlloc, s.flatRetained, err = memSpan(tr, "logicsim", "logicsim.FlatConeSetFor", func() error {
			_, err := logicsim.FlatConeSetFor(c)
			return err
		}); err != nil {
			return err
		}
		if s.legacy, s.legacyAlloc, s.legacyRetained, err = memSpan(tr, "logicsim", "logicsim.ConeSetFor", func() error {
			_, err := logicsim.ConeSetFor(c)
			return err
		}); err != nil {
			return err
		}
		opts := faultsim.Options{Workers: p.SimWorkers}
		if s.atpg, err = tr.do("atpg", "atpg.ProductionTestsBudget", func() error {
			s.patterns, s.tally, err = atpg.ProductionTestsBudget(c, p.RandomPatterns/2, p.RandomPatterns/2,
				p.Seed, universe, p.BacktrackLimit, p.Engine, opts)
			return err
		}); err != nil {
			return err
		}
		s.ramp, err = tr.do("faultsim", "faultsim.RunStepsOpts+SparseRamp", func() error {
			s.result, err = faultsim.RunStepsOpts(c, universe, s.patterns, p.Engine, opts)
			s.rampPoints = len(faultsim.SparseRamp(s.result).Points)
			return err
		})
		return err
	})
	s.wall = time.Since(begin)
	return s, err
}

// memSpan runs fn in a span and also reports the MiB it allocated and
// the MiB of live heap it left behind (both measured after a GC).
func memSpan(tr *tracer, layer, name string, fn func() error) (time.Duration, float64, float64, error) {
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	d, err := tr.do(layer, name, fn)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	alloc := float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	retained := (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / mib
	return d, alloc, retained, err
}

// grid is a campaign grid: cells are yield × n0 × lot size, in sweep's
// cell order, and cuts the coverage targets.
type grid struct {
	yields, n0s []float64
	lots        []int
	cuts        []float64
}

// lotStats are one lot pass's per-call spans.
type lotStats struct {
	ateBuild                           []float64
	generate, test, fallout, fit, fold []float64
	allocKiB                           []float64
	chips, fitOK                       int
	wall                               time.Duration
}

func (ls lotStats) chipsPerS() float64 { return float64(ls.chips) / sum(ls.test) }

func (ls lotStats) gate(rep *report, circ string) {
	lots := len(ls.test)
	rep.gate("tester.ate_build_s."+circ, "s", median(ls.ateBuild), len(ls.ateBuild))
	rep.gate("defect.generate_s_per_lot."+circ, "s", median(ls.generate), lots)
	rep.gate("tester.test_lot_s_per_lot."+circ, "s", median(ls.test), lots)
	rep.gate("tester.chips_per_s."+circ, "chips/s", ls.chipsPerS(), lots)
	rep.gate("tester.alloc_kib_per_lot."+circ, "KiB", median(ls.allocKiB), lots)
	rep.gate("tester.fallout_s_per_lot."+circ, "s", median(ls.fallout), lots)
	rep.gate("estimate.fit_s_per_lot."+circ, "s", median(ls.fit), lots)
	rep.gate("estimate.fit_ok_frac."+circ, "ratio", float64(ls.fitOK)/float64(max(lots, 1)), lots)
	rep.gate("campaign.fold_s_per_task."+circ, "s", median(ls.fold), lots)
}

// lotPass manufactures, tests, reduces, fits and folds reps lots per
// grid cell on one goroutine, timing each public call sweep's per-task
// path makes (LotRunner.RunLotWith's calls, then estimate.FitN0 and
// campaign.Store.Add). Its first lot is checked against RunLotWith.
func lotPass(rep *report, tr *tracer, prep *circuits.Prepared, g grid, seed int64, reps int) (lotStats, error) {
	var ls lotStats
	begin := time.Now()
	lr, err := experiment.NewLotRunnerFrom(prep, experiment.Table1Config{
		Chips: g.lots[0], Yield: g.yields[0], N0: g.n0s[0],
		RandomPatterns: prep.Params.RandomPatterns, Seed: prep.Params.Seed,
	})
	if err != nil {
		return ls, err
	}
	lp := lotPassState{tr: tr, prep: prep, checkpoints: rampCheckpoints(prep.Curve)}
	for i := 0; i < 3; i++ {
		tr.newOp()
		d, err := tr.do("tester", "LotRunner.NewATE", func() error {
			lp.ate, err = lr.NewATE()
			return err
		})
		if err != nil {
			return ls, err
		}
		ls.ateBuild = append(ls.ateBuild, d.Seconds())
	}
	for _, target := range g.cuts {
		pt, ok := prep.Curve.FirstReaching(target)
		if !ok {
			return ls, fmt.Errorf("coverage %v unreachable on %s", target, prep.Circuit.Name)
		}
		lp.steps = append(lp.steps, pt.Pattern)
	}
	cells := len(g.yields) * len(g.n0s) * len(g.lots)
	if lp.store, err = campaign.NewStore(campaign.Layout{Cells: cells, Replicates: reps}, len(g.cuts)); err != nil {
		return ls, err
	}
	task := 0
	for _, y := range g.yields {
		for _, n0 := range g.n0s {
			for _, n := range g.lots {
				for r := 0; r < reps; r++ {
					lotSeed := campaignSeed(seed, task)
					tr.newOp()
					var res tester.LotResult
					var rows []tester.FalloutRow
					_, err := tr.do("perfbench", "lot", func() error {
						var err error
						res, rows, err = lp.lot(&ls, task, y, n0, n, lotSeed)
						return err
					})
					if err != nil {
						return ls, err
					}
					if task == 0 {
						want, err := lr.RunLotWith(lp.ate, y, n0, n, lotSeed)
						if err != nil {
							return ls, err
						}
						rep.check("traced lot equals LotRunner.RunLotWith",
							slices.Equal(want.FirstFail, res.FirstFail) && slices.Equal(want.Rows, rows))
					}
					task++
				}
			}
		}
	}
	rep.check("every traced task folded", lp.store.Complete())
	ls.wall = time.Since(begin)
	return ls, nil
}

// lotPassState is what every lot of a pass shares.
type lotPassState struct {
	tr          *tracer
	prep        *circuits.Prepared
	ate         *tester.ATE
	checkpoints []int // Table 1 reduction steps
	steps       []int // coverage cuts
	store       *campaign.Store
}

// lot runs one task's calls, each in its own span, and records the
// span times in ls.
func (lp *lotPassState) lot(ls *lotStats, task int, y, n0 float64, n int, seed int64) (tester.LotResult, []tester.FalloutRow, error) {
	tr := lp.tr
	var lot defect.Lot
	var res tester.LotResult
	var rows []tester.FalloutRow
	var err error
	d, err := tr.do("defect", "defect.GenerateLotFromModel", func() error {
		// Seeded as RunLotWith seeds it, so the lot equals the one the
		// first-lot check regenerates.
		lot, err = defect.GenerateLotFromModel(y, n0, lp.prep.Universe, n, rand.New(rand.NewSource(seed)))
		return err
	})
	if err != nil {
		return res, rows, err
	}
	ls.generate = append(ls.generate, d.Seconds())

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err = tr.do("tester", "ATE.TestLotSteps", func() error {
		res, err = lp.ate.TestLotSteps(lot)
		return err
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return res, rows, err
	}
	ls.test = append(ls.test, d.Seconds())
	ls.allocKiB = append(ls.allocKiB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	ls.chips += n

	d, err = tr.do("tester", "tester.FalloutTableRamp", func() error {
		rows, err = tester.FalloutTableRamp(res, lp.prep.Curve, lp.checkpoints)
		return err
	})
	if err != nil {
		return res, rows, err
	}
	ls.fallout = append(ls.fallout, d.Seconds())

	curve := make(estimate.Curve, len(rows))
	for i, row := range rows {
		curve[i] = estimate.FalloutPoint{F: row.Coverage, Fail: row.CumFracton}
	}
	rec := summary(lot, res, n, lp.steps)
	// A fit that does not converge is an outcome (fit_ok_frac), not a
	// failed operation: sweep records it the same way.
	d, _ = tr.do("estimate", "estimate.FitN0", func() error {
		if fit, err := estimate.FitN0(curve, y); err == nil {
			rec.FitOK, rec.FitN0 = true, fit.N0
			ls.fitOK++
		}
		return nil
	})
	ls.fit = append(ls.fit, d.Seconds())

	d, err = tr.do("campaign", "campaign.Store.Add", func() error {
		_, _, err := lp.store.Add(task, rec)
		return err
	})
	ls.fold = append(ls.fold, d.Seconds())
	return res, rows, err
}

// summary reduces a tested lot to the per-replicate record the
// campaign store folds, as sweep does: a chip fails the program cut at
// step s iff its first failing strobe is at or before s.
func summary(lot defect.Lot, res tester.LotResult, n int, steps []int) campaign.Summary {
	good := 0
	for _, ch := range lot.Chips {
		if !ch.Defective() {
			good++
		}
	}
	sum := campaign.Summary{
		Passed:      make([]int, len(steps)),
		Escapes:     make([]int, len(steps)),
		TestedYield: res.TestedYield,
		LotYield:    lot.Yield,
		TrueN0:      lot.MeanFaultsOnDefective(),
	}
	for i, step := range steps {
		failed := 0
		for _, ff := range res.FirstFail {
			if ff != tester.NeverFails && ff <= step {
				failed++
			}
		}
		sum.Passed[i] = n - failed
		sum.Escapes[i] = sum.Passed[i] - good
	}
	return sum
}

// rampCheckpoints picks the Table 1 reduction steps on a ramp exactly
// as the experiment package's lot runner does (its selection is
// private); the first traced lot's rows are checked against
// RunLotWith's, so a drift fails the run instead of skewing it.
func rampCheckpoints(ramp faultsim.Ramp) []int {
	if ramp.Steps == 0 {
		return nil
	}
	targets := []float64{0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.36, 0.45, 0.50, 0.65}
	var out []int
	ti := 0
	for _, pt := range ramp.Points {
		for ti < len(targets) && pt.Coverage >= targets[ti] {
			if len(out) == 0 || out[len(out)-1] != pt.Pattern {
				out = append(out, pt.Pattern)
			}
			ti++
		}
		if ti >= len(targets) {
			break
		}
	}
	if len(out) == 0 || out[len(out)-1] != ramp.Steps-1 {
		out = append(out, ramp.Steps-1)
	}
	return out
}

// daemonStats are the client-side and in-process campaign spans.
type daemonStats struct {
	totals, submits, firsts, results []float64
	events                           int
	csvs                             []string
	news, runs, plain, ckptBytes     []float64
	wall                             time.Duration
}

func (ds daemonStats) gate(rep *report) {
	n := len(ds.totals)
	ckpt := make([]float64, len(ds.runs))
	for i := range ds.runs {
		ckpt[i] = ds.runs[i] - ds.plain[i]
	}
	rep.gate("sweepd.submit_s", "s", median(ds.submits), n)
	rep.gate("sweepd.first_event_s", "s", median(ds.firsts), n)
	rep.gate("sweepd.stream_events", "count", float64(ds.events)/float64(max(n, 1)), n)
	rep.gate("sweepd.results_s", "s", median(ds.results), n)
	rep.gate("sweep.new_s", "s", median(ds.news), len(ds.news))
	rep.gate("sweep.run_with_s", "s", median(ds.runs), len(ds.runs))
	rep.gate("campaign.checkpoint_s", "s", median(ckpt), len(ckpt))
	rep.gate("campaign.checkpoint_bytes", "bytes", median(ds.ckptBytes), len(ds.ckptBytes))
	rep.gate("sweepd.overhead_s", "s", median(ds.totals)-(median(ds.news)+median(ds.runs)), n)
	rep.show("submit_to_csv_s", "s", median(ds.totals), n, "median per traced daemon campaign")
}

// daemonPass starts sweepd, times tracedCampaigns campaigns through it,
// then runs each config in process: sweep.New with a private cache
// (the cold small Prepare the daemon pays too), RunWith at the daemon's
// checkpoint cadence, and RunWith without a checkpoint. The daemon is
// returned running for the overhead section; the caller stops it.
func daemonPass(rep *report, tr *tracer, cfg runConfig, dir string) (*daemon, daemonStats, error) {
	var ds daemonStats
	var d *daemon
	tr.newOp()
	_, err := tr.do("sweepd", "exec sweepd", func() error {
		var err error
		d, _, err = startDaemon(cfg.sweepd, filepath.Join(dir, "sweepd"))
		return err
	})
	if err != nil {
		return nil, ds, err
	}
	n := cfg.size.tracedCampaigns
	ds, err = daemonCampaigns(rep, tr, d, cfg, n)
	if err != nil {
		return d, ds, err
	}
	for k := 0; k < n; k++ {
		req := cfg.size.daemonRequest(campaignSeed(cfg.seed, k))
		ckpt := filepath.Join(dir, fmt.Sprintf("inprocess-%d.ckpt", k))
		var sw *sweep.Sweeper
		var withCkpt, plain *sweep.Result
		tr.newOp()
		dNew, err := tr.do("sweep", "sweep.New", func() error {
			sw, err = sweep.New(req.config())
			return err
		})
		if err != nil {
			return d, ds, err
		}
		dRun, err := tr.do("sweep", "Sweeper.RunWith (daemon checkpoint cadence)", func() error {
			withCkpt, err = sw.RunWith(sweep.RunOptions{Checkpoint: ckpt, Resume: true, CheckpointEvery: sweepdCheckpointEvery})
			return err
		})
		if err != nil {
			return d, ds, err
		}
		dPlain, err := tr.do("sweep", "Sweeper.RunWith (no checkpoint)", func() error {
			plain, err = sw.RunWith(sweep.RunOptions{})
			return err
		})
		if err != nil {
			return d, ds, err
		}
		info, err := os.Stat(ckpt)
		if err != nil {
			return d, ds, err
		}
		rep.check("in-process CSV with and without checkpoints", withCkpt.CSV() == plain.CSV())
		rep.check("daemon CSV equals in-process RunWith", withCkpt.CSV() == ds.csvs[k])
		ds.news = append(ds.news, dNew.Seconds())
		ds.runs = append(ds.runs, dRun.Seconds())
		ds.plain = append(ds.plain, dPlain.Seconds())
		ds.ckptBytes = append(ds.ckptBytes, float64(info.Size()))
	}
	return d, ds, nil
}

// daemonCampaigns submits n campaigns to d one after another, seeded
// after the campaigns already submitted so none is deduplicated.
func daemonCampaigns(rep *report, tr *tracer, d *daemon, cfg runConfig, n int) (daemonStats, error) {
	var ds daemonStats
	begin := time.Now()
	for k := 0; k < n; k++ {
		req := cfg.size.daemonRequest(campaignSeed(cfg.seed, d.submitted))
		d.submitted++
		var c campaignTiming
		tr.newOp()
		_, err := tr.do("perfbench", "daemon campaign", func() error {
			var err error
			c, err = d.campaign(tr, req)
			return err
		})
		if !rep.op("daemon campaign", err) {
			return ds, err
		}
		ds.totals = append(ds.totals, c.total.Seconds())
		ds.submits = append(ds.submits, c.submit.Seconds())
		ds.firsts = append(ds.firsts, c.firstEvent.Seconds())
		ds.results = append(ds.results, c.results.Seconds())
		ds.events += c.events
		ds.csvs = append(ds.csvs, c.csv)
	}
	ds.wall = time.Since(begin)
	return ds, nil
}
