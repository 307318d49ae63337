package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/circuits"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
)

// prepareCold times cold circuits.Prepare of the LSI fixture, each on a
// freshly resolved circuit (the cone caches live on the circuit), with
// no store. The k-th prepare of a run takes the seed campaignSeed(seed,
// k): ATPG cost depends on which faults the seed samples, so a run
// spreads over several samples instead of resting on one. The first
// artifact (seed k=0, present in every run) also round-trips through a
// fresh on-disk store, untimed, and its bytes are the run's digest.
func prepareCold(cfg runConfig) (*report, error) {
	rep := newReport(cfg, false)
	sz := cfg.size
	var p circuits.Params
	rep.fact("faultsim_engine", p.Engine.String()+" (default)")
	rep.fact("sim_workers", "0 (default: GOMAXPROCS)")

	dir, cleanup, err := cfg.tempDir("store-")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Set-up: resolving the circuit is all that precedes a prepare.
	var setup []float64
	for i := 0; i < sz.setupRepeats; i++ {
		start := time.Now()
		_, err := circuits.Resolve(sz.bigSpec)
		setup = append(setup, time.Since(start).Seconds())
		if !rep.op("resolve", err) {
			return rep, nil
		}
	}

	var times, allocs []float64
	var last *circuits.Prepared
	var before, after runtime.MemStats
	begin := time.Now()
	for k := 0; len(times) == 0 || time.Since(begin) < cfg.seconds; k++ {
		last = nil // hold one artifact at a time
		p = sz.prepParams(campaignSeed(cfg.seed, k))
		c, err := circuits.Resolve(sz.bigSpec)
		if !rep.op("resolve", err) {
			break
		}
		runtime.GC() // every prepare starts from the same heap
		runtime.ReadMemStats(&before)
		start := time.Now()
		pr, err := circuits.Prepare(c, p)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if !rep.op("prepare", err) {
			break
		}
		times = append(times, elapsed.Seconds())
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/mib)
		t := pr.ATPG
		rep.check("atpg tally partitions the universe",
			t.Detected+t.Untestable+t.Aborted == t.Faults && t.Faults == len(pr.Universe))
		if k == 0 {
			trip, err := roundTrip(rep, &tracer{}, dir, pr)
			rep.op("store round trip", err)
			rep.fact("digest.prepared_artifact", digest(trip.artifact)+" (k=0)")
			rep.fact("atpg_tally", fmt.Sprintf("%+v (k=0)", pr.ATPG))
			rep.fact("patterns", fmt.Sprintf("%d (k=0)", len(pr.Patterns)))
			rep.fact("final_coverage", fmt.Sprintf("%.6f (k=0)", pr.FinalCoverage()))
		}
		last = pr
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) / mib

	rep.show("prepare_s", "s", median(times), len(times), "median per cold Prepare")
	rep.fact("prepare_s.samples", fmt.Sprintf("%.3f", times))
	rep.gate("setup_s", "s", median(setup), len(setup))
	rep.gate("op_s", "s", median(times), len(times))
	rep.gate("alloc_mib", "MiB", median(allocs), len(allocs))
	rep.gate("retained_mib", "MiB", retained, 1)
	runtime.KeepAlive(last)
	return rep, nil
}

// storeTrip is one Store.Save → Store.Load round trip.
type storeTrip struct {
	loaded     *circuits.Prepared
	artifact   []byte
	save, load time.Duration
}

// roundTrip saves pr to a fresh store in dir and loads it back, each
// call in a span, and checks the loaded program equals the saved one.
func roundTrip(rep *report, tr *tracer, dir string, pr *circuits.Prepared) (storeTrip, error) {
	var t storeTrip
	store, err := circuits.NewStore(dir)
	if err != nil {
		return t, err
	}
	tr.newOp()
	if t.save, err = tr.do("circuits", "Store.Save", func() error { return store.Save(pr) }); err != nil {
		return t, err
	}
	if t.load, err = tr.do("circuits", "Store.Load", func() error {
		t.loaded, err = store.Load(pr.Circuit, pr.Params)
		return err
	}); err != nil {
		return t, err
	}
	rep.check("store round trip keeps patterns and first-detects",
		programDigest(t.loaded.Patterns, t.loaded.Result) == programDigest(pr.Patterns, pr.Result))
	t.artifact, err = readArtifact(dir, pr)
	return t, err
}

// readArtifact returns the stored bytes of pr's artifact in dir.
func readArtifact(dir string, pr *circuits.Prepared) ([]byte, error) {
	fp, err := circuits.Fingerprint(pr.Circuit, pr.Params)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(dir, fp+".json"))
}

// programDigest identifies a test program and its fault-simulation
// outcome: the ordered patterns and every fault's first-detect step.
func programDigest(patterns []logicsim.Pattern, res faultsim.Result) string {
	var b []byte
	for _, pat := range patterns {
		for _, bit := range pat {
			if bit {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
		}
		b = append(b, '\n')
	}
	b = fmt.Appendf(b, "steps=%d\n", res.Patterns)
	for _, d := range res.FirstDetect {
		b = fmt.Appendf(b, "%d,", d)
	}
	return digest(b)
}
