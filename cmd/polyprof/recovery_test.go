package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"polyprof/internal/jobstore"
)

// startServe launches the built binary's serve command on an ephemeral
// port with the given job-store dir and returns the process plus the
// base URL parsed from its startup line.
func startServe(t *testing.T, bin, dataDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, "serve", "-http", "127.0.0.1:0", "-data-dir", dataDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("serve: %s", line)
			if i := strings.Index(line, "http://"); i >= 0 && strings.Contains(line, "serving profiles") {
				addr := strings.Fields(line[i:])[0]
				select {
				case urlCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case url := <-urlCh:
		return cmd, url
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("serve never printed its listen address")
		return nil, ""
	}
}

func getJob(t *testing.T, base, id string) *jobstore.Job {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s = %d: %s", id, resp.StatusCode, body)
	}
	var j jobstore.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("job %s does not parse: %v", id, err)
	}
	return &j
}

// TestServeKillRestartRecovery is the end-to-end durability proof at
// the process level: a real daemon is SIGKILLed while jobs are in
// flight, restarted on the same -data-dir, and every job it had
// acknowledged must reach its correct terminal state — no acknowledged
// job lost, none double-completed, failures still terminal.
//
// Set POLYPROF_JOBSTORE_DIR to pin the job-store directory (CI uses
// this to upload the WAL as an artifact when the test fails).
func TestServeKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a real daemon; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "polyprof")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := os.Getenv("POLYPROF_JOBSTORE_DIR")
	if dataDir == "" {
		dataDir = filepath.Join(t.TempDir(), "jobs")
	}

	proc, base := startServe(t, bin, dataDir)

	// Acknowledged submissions: every 202 is a durability promise.
	acked := map[string]string{} // id -> kind of submission
	submit := func(query string, body []byte, kind string) {
		t.Helper()
		url := base + "/v1/jobs"
		if query != "" {
			url += "?" + query
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, data)
		}
		var sum jobstore.JobSummary
		if err := json.Unmarshal(data, &sum); err != nil {
			t.Fatal(err)
		}
		acked[sum.ID] = kind
	}
	// nocache=1: the test needs six independent in-flight jobs, not one
	// run plus five O(1) cache hits on its report.
	for i := 0; i < 6; i++ {
		submit("workload=example1&nocache=1", nil, "ok")
	}
	// A hostile body: acknowledged, then terminally failed — the failed
	// state must survive the crash too.
	submit("", []byte("this is not a program"), "hostile")

	// SIGKILL with jobs queued and running: no drain, no WAL close.
	if err := proc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	proc.Wait()

	proc2, base2 := startServe(t, bin, dataDir)
	defer func() {
		proc2.Process.Signal(syscall.SIGTERM)
		proc2.Wait()
	}()

	deadline := time.Now().Add(60 * time.Second)
	for id, kind := range acked {
		var j *jobstore.Job
		for time.Now().Before(deadline) {
			j = getJob(t, base2, id) // 404 here = an acknowledged job was lost
			if j.State.Terminal() {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		switch kind {
		case "ok":
			if j.State != jobstore.StateSucceeded || len(j.Result.Report) == 0 {
				t.Errorf("job %s after crash = state %s, want succeeded with report (%+v)", id, j.State, j.Error)
			}
		case "hostile":
			if j.State != jobstore.StateFailed || j.Error == nil || !j.Error.Terminal {
				t.Errorf("hostile job %s after crash = state %s error %+v, want terminal failure", id, j.State, j.Error)
			}
			// One terminal attempt, plus at most one the SIGKILL
			// interrupted (crash-interrupted attempts count toward the
			// quarantine limit by design).  More would mean the terminal
			// error was retried.
			if j.Attempts > 2 {
				t.Errorf("hostile job %s retried after terminal failure: attempts = %d", id, j.Attempts)
			}
		}
	}

	// No double-completion and no phantom successes: every listed job is
	// internally consistent and every acknowledged one is present
	// exactly once.
	resp, err := http.Get(base2 + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var list struct {
		Jobs []jobstore.JobSummary `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("list does not parse: %v: %s", err, body)
	}
	seen := map[string]int{}
	for _, sum := range list.Jobs {
		seen[sum.ID]++
		if sum.State == jobstore.StateSucceeded && sum.Attempts == 0 {
			t.Errorf("job %s succeeded with zero attempts", sum.ID)
		}
	}
	for id := range acked {
		if n := seen[id]; n != 1 {
			t.Errorf("acknowledged job %s appears %d times in the list", id, n)
		}
	}
	if t.Failed() {
		fmt.Printf("job-store dir kept for inspection: %s\n", dataDir)
	}
}
