package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/faultsim"
	"repro/internal/sweep"
	"repro/internal/tester"
)

// daemonMul8 runs a cmd/sweepd child on a fresh checkpoint directory
// with default flags, and one closed-loop client submitting mul8
// campaigns back to back: POST /campaigns, read /stream until it
// closes, GET /results?format=csv. Each campaign has its own seed, so
// each submit pays a cold small Prepare. Afterwards every daemon CSV
// is compared with an in-process sweep.Run of the same config.
func daemonMul8(cfg runConfig) (*report, error) {
	rep := newReport(cfg, false)
	sz := cfg.size
	dir, cleanup, err := cfg.tempDir("sweepd-")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Set-up: exec until the daemon prints its listening address. Every
	// start but the last is stopped straight away.
	var setup []float64
	var d *daemon
	for i := 0; i < sz.setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		d, took, err = startDaemon(cfg.sweepd, filepath.Join(dir, fmt.Sprintf("ckpt%d", i)))
		if !rep.op("start sweepd", err) {
			return rep, nil
		}
		setup = append(setup, took.Seconds())
	}
	defer d.stop()

	off := &tracer{}
	var reqs []daemonRequest
	var csvs []string
	var times []float64
	begin := time.Now()
	for k := 0; len(times) == 0 || time.Since(begin) < cfg.seconds; k++ {
		req := sz.daemonRequest(campaignSeed(cfg.seed, k))
		c, err := d.campaign(off, req)
		if !rep.op("daemon campaign", err) {
			break
		}
		times = append(times, c.total.Seconds())
		reqs = append(reqs, req)
		csvs = append(csvs, c.csv)
	}
	d.stop()

	// Outside the timed phase: the same configs in process. Their
	// allocation and retained heap stand in for the daemon's, which the
	// client cannot see.
	var allocs []float64
	var before, after runtime.MemStats
	var sw *sweep.Sweeper // the last campaign, held as a daemon job holds it
	var res *sweep.Result
	all := sha256.New()
	for i, req := range reqs {
		sw, res = nil, nil
		runtime.GC()
		runtime.ReadMemStats(&before)
		sw, err = sweep.New(req.config())
		if err == nil {
			res, err = sw.Run()
		}
		runtime.ReadMemStats(&after)
		if !rep.op("in-process campaign", err) {
			continue
		}
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/mib)
		rep.check("daemon CSV equals in-process sweep.Run", res.CSV() == csvs[i])
		fmt.Fprintf(all, "seed=%d\n%s", req.Seed, csvs[i])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) / mib
	runtime.KeepAlive(sw)
	runtime.KeepAlive(res)

	var engine faultsim.Engine
	var lotEngine tester.LotEngine
	rep.fact("engine/lot_engine/workers", fmt.Sprintf("%v / %v / GOMAXPROCS (unset in the submit body: daemon defaults)",
		engine, lotEngine))
	rep.fact("digest.csvs", fmt.Sprintf("%x (%d campaigns)", all.Sum(nil), len(csvs)))
	errSum, rows := 0.0, 0
	for _, csv := range csvs {
		e, n := eq8Error(csv)
		errSum += e * float64(n)
		rows += n
	}
	rep.show("eq8_mean_abs_err", "-", errSum/float64(max(rows, 1)), rows, "mean |mean_r - analytic_r| over CSV rows")
	rep.show("submit_to_csv_s", "s", median(times), len(times), "median per campaign")
	if p, v, ok := tail(times); ok {
		rep.show("submit_to_csv_tail_s", "s", v, len(times), fmt.Sprintf("p%d, %d campaigns beyond it", p, len(times)-(p*len(times)+99)/100))
	} else {
		rep.show("submit_to_csv_tail_s", "s", v, len(times), "fewer than 11 campaigns: no percentile has 10 beyond it")
	}
	rep.gate("setup_s", "s", median(setup), len(setup))
	rep.gate("op_s", "s", median(times), len(times))
	rep.gate("alloc_mib", "MiB", median(allocs), len(allocs))
	rep.gate("retained_mib", "MiB", retained, 1)
	return rep, nil
}

// daemon is one running cmd/sweepd child.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	once   sync.Once
	// submitted counts campaigns sent, so later ones get fresh seeds.
	submitted int
}

// running lists the children still alive, so a failure or a signal can
// stop them all.
var running = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// killChildren stops every child the benchmark started.
func killChildren() {
	running.Lock()
	ds := make([]*daemon, 0, len(running.set))
	for d := range running.set {
		ds = append(ds, d)
	}
	running.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// startDaemon execs sweepd on an ephemeral port and returns once it has
// printed its listening address, with the time that took.
func startDaemon(bin, ckptDir string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-checkpoint-dir", ckptDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	running.Lock()
	running.set[d] = true
	running.Unlock()

	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			banner <- sc.Text()
		}
		close(banner)
		for sc.Scan() {
		}
	}()
	var line string
	select {
	case line = <-banner:
	case <-time.After(30 * time.Second):
	}
	took := time.Since(start)
	addr, ok := strings.CutPrefix(line, "listening on ")
	if !ok {
		d.stop()
		return nil, 0, fmt.Errorf("sweepd did not announce its address (got %q)", line)
	}
	d.url = "http://" + addr
	return d, took, nil
}

// stop kills the child and waits for it to exit. Kill fails only when
// the child has already exited, and Wait then reports the kill itself,
// so neither error says anything the caller could act on.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
		d.client.CloseIdleConnections()
		running.Lock()
		delete(running.set, d)
		running.Unlock()
	})
}

// campaignTiming is one submit→CSV round trip seen from the client.
type campaignTiming struct {
	total, submit, firstEvent, stream, results time.Duration
	events                                     int
	csv                                        string
}

// campaign submits req and follows it to its CSV, timing each HTTP call
// as a sweepd span.
func (d *daemon) campaign(tr *tracer, req daemonRequest) (campaignTiming, error) {
	var c campaignTiming
	body, err := json.Marshal(req)
	if err != nil {
		return c, err
	}
	start := time.Now()
	var id string
	c.submit, err = tr.do("sweepd", "POST /campaigns", func() error {
		resp, err := d.client.Post(d.url+"/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var st struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusAccepted || st.ID == "" {
			return fmt.Errorf("submit: status %d, id %q", resp.StatusCode, st.ID)
		}
		id = st.ID
		return nil
	})
	if err != nil {
		return c, err
	}
	c.stream, err = tr.do("sweepd", "GET /stream", func() error {
		streamStart := time.Now()
		resp, err := d.client.Get(d.url + "/campaigns/" + id + "/stream")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("stream: status %d", resp.StatusCode)
		}
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadBytes('\n')
			if len(line) > 0 {
				if c.events == 0 {
					c.firstEvent = time.Since(streamStart)
				}
				c.events++
			}
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return c, err
	}
	c.results, err = tr.do("sweepd", "GET /results?format=csv", func() error {
		resp, err := d.client.Get(d.url + "/campaigns/" + id + "/results?format=csv")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("results: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		}
		c.csv = string(b)
		return nil
	})
	c.total = time.Since(start)
	return c, err
}
