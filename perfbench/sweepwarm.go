package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuits"
	"repro/internal/experiment"
	"repro/internal/sweep"
	"repro/internal/tester"
)

// sweepWarm times whole campaigns on the LSI fixture with the Prepared
// artifacts decoded from an on-disk store filled beforehand (untimed),
// so ATPG and cone building do no work and the lot engine dominates.
// Campaign cost depends on the program a seed prepares (its coverage
// sets how many chips escape and run the whole program), so a run fills
// the store for warmSeeds seeds campaignSeed(seed, k) and rotates its
// campaigns over them.
func sweepWarm(cfg runConfig) (*report, error) {
	rep := newReport(cfg, false)
	sz := cfg.size
	dir, cleanup, err := cfg.tempDir("store-")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	seeds := make([]int64, sz.warmSeeds)
	for k := range seeds {
		seeds[k] = campaignSeed(cfg.seed, k)
	}
	artifacts, err := fillStore(dir, sz, seeds)
	if !rep.op("fill store", err) {
		return rep, nil
	}
	rep.fact("digest.prepared_artifacts", fmt.Sprintf("%s (%d seeds)", artifacts, len(seeds)))

	// Set-up: sweep.New against the warm store, each time through a
	// fresh cache so the artifact is decoded again.
	var setup []float64
	sweepers := make([]*sweep.Sweeper, len(seeds))
	for i := 0; i < max(sz.setupRepeats, len(seeds)); i++ {
		k := i % len(seeds)
		sweepers[k] = nil
		start := time.Now()
		sw, err := sweep.New(sz.sweepConfig(seeds[k], dir))
		setup = append(setup, time.Since(start).Seconds())
		if !rep.op("sweep.New", err) {
			return rep, nil
		}
		sweepers[k] = sw
	}
	ate, err := sweepers[0].Runner(0).NewATE()
	if !rep.op("ate", err) {
		return rep, nil
	}
	rep.fact("lot_engine", ate.Engine().String()+" (default)")
	rep.fact("workers", fmt.Sprintf("%d (default: GOMAXPROCS)", runtime.GOMAXPROCS(0)))

	perCampaign := chips(sz.sweepConfig(cfg.seed, dir))
	var times, allocs []float64
	csvs := make([]string, len(seeds))
	var before, after runtime.MemStats
	begin := time.Now()
	for i := 0; i < len(seeds) || time.Since(begin) < cfg.seconds; i++ {
		k := i % len(seeds)
		runtime.GC() // every campaign starts from the same heap
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := sweepers[k].RunWith(sweep.RunOptions{})
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if !rep.op("campaign", err) {
			break
		}
		times = append(times, elapsed.Seconds())
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/mib)
		got := res.CSV()
		if csvs[k] == "" {
			csvs[k] = got
		}
		rep.check("repeat campaign CSV is byte-identical", got == csvs[k])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) / mib
	runtime.KeepAlive(sweepers)

	// Outside the timed phase: a replicate-sized lot of the first cell,
	// re-tested with the serial oracle, must fail on the same strobes.
	rep.op("serial oracle", serialOracle(rep, sweepers[0].Runner(0), sz.sweepConfig(seeds[0], dir)))
	all := sha256.New()
	errSum, rows := 0.0, 0
	for k, csv := range csvs {
		fmt.Fprintf(all, "seed=%d\n%s", seeds[k], csv)
		e, n := eq8Error(csv)
		errSum += e * float64(n)
		rows += n
	}
	rep.fact("digest.csvs", fmt.Sprintf("%x (%d seeds)", all.Sum(nil), len(seeds)))
	rep.show("eq8_mean_abs_err", "-", errSum/float64(max(rows, 1)), rows, "mean |mean_r - analytic_r| over CSV rows")
	rep.show("chips_per_s", "chips/s", float64(perCampaign*len(times))/sum(times), len(times),
		fmt.Sprintf("%d chips per campaign", perCampaign))
	rep.show("campaign_s", "s", median(times), len(times), "median per campaign")
	rep.gate("setup_s", "s", median(setup), len(setup))
	rep.gate("op_s", "s", median(times), len(times))
	rep.gate("alloc_mib", "MiB", median(allocs), len(allocs))
	rep.gate("retained_mib", "MiB", retained, 1)
	return rep, nil
}

// fillStore prepares the LSI fixture cold for each seed into a fresh
// store in dir, on one resolved circuit so its cone sets are built once,
// and returns the SHA-256 over the artifact bytes in seed order.
func fillStore(dir string, sz size, seeds []int64) (string, error) {
	store, err := circuits.NewStore(dir)
	if err != nil {
		return "", err
	}
	c, err := circuits.Resolve(sz.bigSpec)
	if err != nil {
		return "", err
	}
	all := sha256.New()
	for _, seed := range seeds {
		pr, err := circuits.Prepare(c, sz.prepParams(seed))
		if err != nil {
			return "", err
		}
		if err := store.Save(pr); err != nil {
			return "", err
		}
		b, err := readArtifact(dir, pr)
		if err != nil {
			return "", err
		}
		all.Write(b)
	}
	return fmt.Sprintf("%x", all.Sum(nil)), nil
}

// serialOracle runs one replicate-sized lot of the first cell through
// the default lot engine and again through tester.Serial, and checks
// that every chip's first failing strobe agrees.
func serialOracle(rep *report, lr *experiment.LotRunner, scfg sweep.Config) error {
	ate, err := lr.NewATE()
	if err != nil {
		return err
	}
	y, n0, n := scfg.Yields[0], scfg.N0s[0], scfg.LotSizes[0]
	fast, err := lr.RunLotWith(ate, y, n0, n, scfg.Seed)
	if err != nil {
		return err
	}
	ate.SetEngine(tester.Serial)
	slow, err := lr.RunLotWith(ate, y, n0, n, scfg.Seed)
	if err != nil {
		return err
	}
	rep.check("serial oracle FirstFail", slices.Equal(fast.FirstFail, slow.FirstFail))
	return nil
}

// eq8Error is the mean |mean_r - analytic_r| over a sweep CSV's rows
// (accuracy against the paper's Eq. 8), and the row count.
func eq8Error(csv string) (float64, int) {
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		return math.NaN(), 0
	}
	header := strings.Split(lines[0], ",")
	ia, im := slices.Index(header, "analytic_r"), slices.Index(header, "mean_r")
	total, n := 0.0, 0
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		a, errA := strconv.ParseFloat(f[ia], 64)
		m, errM := strconv.ParseFloat(f[im], 64)
		if errA != nil || errM != nil || math.IsNaN(m) {
			continue
		}
		total += math.Abs(m - a)
		n++
	}
	return total / float64(n), n
}
