package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuits"
)

// tinySize runs every workload's code path in well under a second per
// operation: small builtin circuits, one-cell grids, few replicates.
func tinySize() size {
	return size{
		bigSpec:     "mul4",
		prep:        circuits.Params{RandomPatterns: 16, SampleFaults: 40, BacktrackLimit: 50},
		sweepYields: []float64{0.2},
		sweepN0s:    []float64{3},
		sweepLots:   []int{60},
		sweepCuts:   []float64{0.3, 0.6},
		sweepReps:   2,
		warmSeeds:   2,

		smallSpec:    "cmp8",
		daemonYields: []float64{0.2},
		daemonN0s:    []float64{3},
		daemonLots:   []int{40},
		daemonCuts:   []float64{0.3, 0.6},
		daemonReps:   2,
		daemonRandom: 32,

		setupRepeats:    2,
		tracedReps:      2,
		tracedCampaigns: 2,
	}
}

// tinyConfig builds cmd/sweepd once per test and returns a run config
// writing under the test's temp directory.
func tinyConfig(t *testing.T, workload string) runConfig {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "sweepd")
	build := exec.Command("go", "build", "-C", "..", "-o", bin, "./cmd/sweepd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build sweepd: %v\n%s", err, out)
	}
	return runConfig{
		workload: workload,
		seed:     7,
		seconds:  0, // one operation
		sweepd:   bin,
		root:     "..",
		out:      filepath.Join(dir, "out"),
		size:     tinySize(),
	}
}

// lastLine writes rep and decodes its result line.
func lastLine(t *testing.T, rep *report, cfg runConfig) result {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.write(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not correct:\n%s", buf.String())
	}
	return res
}

func checkMetrics(t *testing.T, res result, want []string) {
	t.Helper()
	for _, name := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("metric %s = %v %q", name, m.Value, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
}

// TestWorkloadsSmoke runs all three end-to-end workloads at the tiny
// size: every check passes and every end-to-end metric is reported.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range []string{"prepare-cold", "sweep-warm", "daemon-mul8"} {
		t.Run(wl, func(t *testing.T) {
			cfg := tinyConfig(t, wl)
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := lastLine(t, rep, cfg)
			checkMetrics(t, res, endToEndMetrics)
			if op := res.Metrics["op_s"].Value; op <= 0 {
				t.Errorf("op_s = %v", op)
			}
		})
	}
}

// TestTracedSmoke runs the traced per-layer run at the tiny size for
// each workload's overhead section, and checks the trace file is
// Chrome trace-event JSON with parents and operation ids.
func TestTracedSmoke(t *testing.T) {
	for _, wl := range []string{"prepare-cold", "sweep-warm", "daemon-mul8"} {
		t.Run(wl, func(t *testing.T) {
			cfg := tinyConfig(t, wl)
			rep, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, lastLine(t, rep, cfg), perLayerMetrics())
			b, err := os.ReadFile(filepath.Join(cfg.out, wl+"-seed7-traced.trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &trace); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			children := 0
			for _, ev := range trace.TraceEvents {
				seen[ev.Cat] = true
				if ev.Args["parent"].(float64) != 0 {
					children++
				}
				if ev.Args["op"].(float64) < 1 || ev.Dur < 0 {
					t.Errorf("event %+v", ev)
				}
			}
			for _, l := range layers {
				if !seen[l] {
					t.Errorf("no span for layer %s", l)
				}
			}
			if children == 0 {
				t.Error("no span has a parent")
			}
		})
	}
}

// TestBenchmarkJSON pins the declared benchmark to the program: the
// same workloads, end-to-end metrics and per-layer metrics.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got, want := names(decl.Workloads), []string{"prepare-cold", "sweep-warm", "daemon-mul8"}; !slices.Equal(got, want) {
		t.Errorf("workloads %v, want %v", got, want)
	}
	if got := names(decl.EndToEnd); !slices.Equal(got, endToEndMetrics) {
		t.Errorf("end_to_end %v, want %v", got, endToEndMetrics)
	}
	if got, want := names(decl.PerLayer), perLayerMetrics(); !slices.Equal(got, want) {
		t.Errorf("per_layer %v, want %v", got, want)
	}
}

func TestUnknownWorkload(t *testing.T) {
	cfg := runConfig{workload: "nope", size: tinySize()}
	if _, err := runWorkload(cfg); err == nil {
		t.Error("runWorkload accepted an unknown workload")
	}
	if _, err := runTraced(cfg); err == nil {
		t.Error("runTraced accepted an unknown workload")
	}
}

func TestTail(t *testing.T) {
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Error("tail of 10 samples has no percentile with 10 beyond it")
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	p, v, ok := tail(xs)
	if !ok || p != 75 || v != 30 {
		t.Errorf("tail = p%d %v %v, want p75 30 true", p, v, ok)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
