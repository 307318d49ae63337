package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// endToEndMetrics are the metrics an untraced run reports on its last
// line, for every workload. The workload-specific names of the same
// quantities (prepare_s, chips_per_s, submit_to_csv_s, ...) are printed
// above it with their sample counts.
var endToEndMetrics = []string{"setup_s", "op_s", "alloc_mib", "retained_mib"}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// report collects one run's metrics, facts and check outcomes.
type report struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	failures  []string
	// gated are the metrics on the last line; shown are printed only.
	gated []metric
	shown []metric
	facts [][2]string
	tr    *tracer
}

func newReport(cfg runConfig, traced bool) *report {
	r := &report{workload: cfg.workload, seed: cfg.seed, traced: traced}
	r.fact("nproc", fmt.Sprint(runtime.NumCPU()))
	r.fact("gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0)))
	r.fact("go", runtime.Version())
	r.fact("commit", commit(cfg.root))
	r.fact("source_sha256", sourceDigest(cfg.root))
	return r
}

// op counts one attempted operation, failed if err is non-nil.
func (r *report) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// check counts one correctness check as an operation; a mismatch is a
// failed operation.
func (r *report) check(what string, ok bool) {
	var err error
	if !ok {
		err = fmt.Errorf("mismatch")
	}
	r.op("check "+what, err)
}

func (r *report) fact(key, value string) { r.facts = append(r.facts, [2]string{key, value}) }

// gate records a metric for the last line.
func (r *report) gate(name, unit string, value float64, n int) {
	r.gated = append(r.gated, metric{name: name, unit: unit, value: value, n: n})
}

// show records a metric that is printed but not on the last line.
func (r *report) show(name, unit string, value float64, n int, note string) {
	r.shown = append(r.shown, metric{name: name, unit: unit, value: value, n: n, note: note})
}

// result is the last stdout line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human-readable report, then the result line, and
// leaves the full report (and the trace, for traced runs) under out.
func (r *report) write(w io.Writer, cfg runConfig) error {
	want := endToEndMetrics
	if r.traced {
		want = perLayerMetrics()
	}
	got := map[string]resultMetric{}
	for _, m := range r.gated {
		if !slices.Contains(want, m.name) {
			return fmt.Errorf("metric %s is not declared", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.op("metric "+m.name, fmt.Errorf("not measured (%v)", m.value))
			continue
		}
		got[m.name] = resultMetric{Value: m.value, Unit: m.unit}
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			r.op("metric "+name, fmt.Errorf("missing"))
		}
	}

	var sb strings.Builder
	mode := "end-to-end"
	if r.traced {
		mode = "traced per-layer"
	}
	fmt.Fprintf(&sb, "perfbench %s run: workload=%s seed=%d\n", mode, r.workload, r.seed)
	for _, f := range r.facts {
		fmt.Fprintf(&sb, "  %-28s %s\n", f[0], f[1])
	}
	for _, m := range append(append([]metric(nil), r.shown...), r.gated...) {
		fmt.Fprintf(&sb, "  %-36s %14.6g %-8s n=%d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			fmt.Fprintf(&sb, "  (%s)", m.note)
		}
		sb.WriteByte('\n')
	}
	frac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(&sb, "  %-36s %14.6g %-8s n=%d\n", "failed_frac", frac, "-", r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(&sb, "  FAILED %s\n", f)
	}
	res := result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: got}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := r.save(cfg, sb.String(), line); err != nil {
		fmt.Fprintf(&sb, "  (report not saved: %v)\n", err)
	}
	_, err = fmt.Fprintf(w, "%s%s\n", sb.String(), line)
	return err
}

// save writes the report text and result line, and for traced runs the
// Chrome trace-event file, under cfg.out.
func (r *report) save(cfg runConfig, text string, line []byte) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d", r.workload, r.seed)
	if r.traced {
		stem += "-traced"
		f, err := os.Create(filepath.Join(cfg.out, stem+".trace.json"))
		if err != nil {
			return err
		}
		if err := r.tr.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(cfg.out, stem+".txt"), []byte(text+string(line)+"\n"), 0o644)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile p with at least ten samples
// beyond it (nearest-rank), and its value; ok is false below 11
// samples.
func tail(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p = 100 * (n - 10) / n
	rank := (p*n + 99) / 100 // ceil(p*n/100), at most n-10
	return p, s[rank-1], true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

const mib = 1 << 20

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// commit names the checked-out commit when the benchmark runs inside a
// git work tree, and says so when it does not.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown (not a git checkout; see source_sha256)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program under test: every go.mod and .go
// file of the module outside the benchmark's own directories, in path
// order. Two checkouts with equal digests build the same program.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (rel == "perfbench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
