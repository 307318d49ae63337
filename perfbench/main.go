// Command perfbench is the repository benchmark: three workloads that
// measure the host cost of the reproduction's three ways of being used,
// plus a traced run that times the calls into every layer from the
// benchmark's own code.
//
//	perfbench -sweepd sweepd --workload prepare-cold --seed 1 --seconds 20 --trace 0
//
// perfbench/run.sh builds both binaries and runs it.
//
// Workloads:
//
//   - prepare-cold: cold circuits.Prepare of the embedded lsi4k fixture
//     (collapse, sample, ATPG, ramp) on a freshly resolved circuit.
//   - sweep-warm: repeated Sweeper.RunWith campaigns on lsi4k with the
//     Prepared artifact decoded from an already-filled on-disk store.
//   - daemon-mul8: a cmd/sweepd child process and one closed-loop
//     client submitting paper-scale mul8 campaigns back to back.
//
// With --trace 0 the last stdout line is one JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics
// (see traced.go). Every simulated statistic is deterministic per seed,
// so outputs are checked for exact equality and only host cost is
// timed. Any failed check makes the command exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: prepare-cold, sweep-warm or daemon-mul8")
	seed := flag.Int64("seed", 1, "workload seed: feeds Params.Seed / Config.Seed and the daemon campaign seeds")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	sweepd := flag.String("sweepd", "", "path to a built cmd/sweepd binary (required)")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"),
		"directory for the trace, the report and temporary stores")
	flag.Parse()

	if *sweepd == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -sweepd is required")
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		sweepd:   *sweepd,
		root:     ".",
		out:      *out,
		size:     fullSize(),
	}
	// Every child process is stopped on return, on panic, and on SIGINT
	// or SIGTERM.
	defer killChildren()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.Exit(130)
	}()

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runWorkload(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.write(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	sweepd   string
	root     string // the repository checkout under test
	out      string
	size     size
}

// runWorkload runs one untraced end-to-end workload.
func runWorkload(cfg runConfig) (*report, error) {
	switch cfg.workload {
	case "prepare-cold":
		return prepareCold(cfg)
	case "sweep-warm":
		return sweepWarm(cfg)
	case "daemon-mul8":
		return daemonMul8(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want prepare-cold, sweep-warm or daemon-mul8)", cfg.workload)
}

// tempDir makes a fresh directory under the run's output directory and
// returns it with its cleanup; stores and checkpoints never touch the
// repository's own .prepared-store/.
func (cfg runConfig) tempDir(prefix string) (string, func(), error) {
	base := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, prefix)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
