package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestE2ECrashResume is the sweepd smoke test (`make sweepd-smoke`):
// build the real binary, start it, submit a two-circuit campaign, kill
// the process with SIGKILL mid-run, restart it on the same checkpoint
// directory, resubmit, and require the final CSV byte-identical to an
// in-process run. Gated behind SWEEPD_E2E=1: it builds a binary and
// kills processes, which is smoke-test work, not unit-test work.
func TestE2ECrashResume(t *testing.T) {
	if os.Getenv("SWEEPD_E2E") == "" {
		t.Skip("set SWEEPD_E2E=1 to run the sweepd crash/resume smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sweepd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ckptDir := filepath.Join(dir, "ckpt")

	start := func() (*exec.Cmd, string) {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-checkpoint-dir", ckptDir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The daemon prints "listening on <addr>" once the socket is up.
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			t.Fatalf("daemon exited before announcing its address: %v", sc.Err())
		}
		line := sc.Text()
		addr, ok := strings.CutPrefix(line, "listening on ")
		if !ok {
			t.Fatalf("unexpected daemon banner %q", line)
		}
		go func() {
			for sc.Scan() {
			}
		}()
		return cmd, "http://" + addr
	}

	// The campaign: big enough (2 cells x 200 replicates) that the kill
	// below lands mid-run, small enough to finish in seconds.
	body := `{
		"circuits": ["mul4", "cmp8"],
		"yields": [0.25],
		"n0s": [3],
		"lot_sizes": [60],
		"coverages": [0.3, 0.6],
		"replicates": 200,
		"workers": 2,
		"random_patterns": 32,
		"seed": 19
	}`
	submit := func(url string) statusResponse {
		resp, err := http.Post(url+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st statusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.ID == "" {
			t.Fatalf("submit returned %+v", st)
		}
		return st
	}
	status := func(url, id string) statusResponse {
		resp, err := http.Get(url + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st statusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	cmd, url := start()
	st := submit(url)
	// Wait for the first durable checkpoint so the SIGKILL lands
	// mid-campaign with something to resume from (progress alone can
	// precede it by up to -checkpoint-every tasks), then pull the plug —
	// no drain, no final checkpoint, a true crash. Checkpoints are
	// renamed into place, so a matching name is a complete file.
	deadline := time.Now().Add(60 * time.Second)
	for {
		ckpts, err := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		cur := status(url, st.ID)
		if len(ckpts) > 0 {
			t.Logf("killing daemon at %d/%d tasks", cur.TasksDone, cur.TasksTotal)
			break
		}
		if cur.State == stateDone {
			t.Fatal("campaign finished before its first checkpoint")
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same checkpoint directory and resubmit the same
	// config: the daemon resumes from the last durable watermark.
	cmd2, url2 := start()
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	st2 := submit(url2)
	deadline = time.Now().Add(120 * time.Second)
	var final statusResponse
	for {
		final = status(url2, st2.ID)
		if final.State == stateDone {
			break
		}
		if final.State == stateFailed {
			t.Fatalf("resumed campaign failed: %s", final.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed campaign stuck in %s", final.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !final.Resumed {
		t.Error("restarted daemon did not resume from the crash checkpoint")
	}
	resp, err := http.Get(url2 + "/campaigns/" + st2.ID + "/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d: %s", resp.StatusCode, buf.String())
	}

	cfg := testConfig()
	cfg.Replicates = 200
	golden, err := sweep.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden.CSV() {
		t.Error("post-crash resumed CSV differs from in-process run")
	}
	fmt.Println("sweepd crash/resume smoke: byte-identical after SIGKILL")
}
