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

// submitProgram posts an isa-JSON program as a job and returns its ID.
func submitProgram(t *testing.T, base, query string, body []byte) string {
	t.Helper()
	url := base + "/v1/jobs"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %q = %d: %s", query, resp.StatusCode, data)
	}
	var sum jobstore.JobSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	return sum.ID
}

// waitTerminal polls until the job reaches a terminal state and
// returns it with its lifecycle trace.
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) *jobstore.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j := getJobTrace(t, base, id)
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// captureStream subscribes to the job's SSE stream and appends every
// provisional report to <dataDir>/stream-provisionals.jsonl — the
// artifact CI uploads when this test fails.  Best-effort by design:
// the daemon is about to be SIGKILLed mid-stream, so read errors are
// expected and swallowed.
func captureStream(base, id, dataDir string) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "?stream=1")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	f, err := os.OpenFile(filepath.Join(dataDir, "stream-provisionals.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			fmt.Fprintln(f, strings.TrimPrefix(line, "data: "))
		}
	}
}

// TestStreamingKillMinusNineResumes is the streaming tier's durability
// proof at the process level: a real daemon is SIGKILLed while a
// streaming job is mid-trace with committed epoch checkpoints,
// restarted on the same -data-dir, and the recovered attempt must
// resume past event zero (from the last committed epoch, per the
// checkpoint-resume trace event) and finish with a report
// byte-identical to a buffered run of the same program.
//
// Set POLYPROF_STREAM_DATA_DIR to pin the data directory (CI uploads
// it — WAL, checkpoints, and captured provisional reports — when the
// test fails); the run uses its "sequential" subdirectory.
func TestStreamingKillMinusNineResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a real daemon; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "polyprof")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	root := os.Getenv("POLYPROF_STREAM_DATA_DIR")
	if root == "" {
		root = t.TempDir()
	}
	t.Run("sequential", func(t *testing.T) {
		killAndResumeStream(t, bin, filepath.Join(root, "sequential"))
	})
}

// killAndResumeStream runs one kill -9 and resume cycle against a
// daemon on dataDir.
func killAndResumeStream(t *testing.T, bin, dataDir string) {
	proc, base := startServe(t, bin, dataDir)

	// ~40M VM steps on a 2M-event epoch grid: enough epochs that at
	// least one checkpoint commits quickly, enough trace left after it
	// that the SIGKILL lands mid-stream.
	prog := slowLoopProgram(8_000_000)
	id := submitProgram(t, base, "epoch-events=2000000", prog)
	go captureStream(base, id, dataDir)

	// Wait for a committed epoch: the checkpoint trace event is
	// observable over HTTP only after the fsynced ckpt WAL record, so
	// seeing it guarantees the restart will have an epoch to resume
	// from.
	committed := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j := getJobTrace(t, base, id)
		for _, ev := range j.Trace {
			if ev.Event == jobstore.TraceCheckpoint {
				committed = true
			}
		}
		if committed {
			break
		}
		if j.State.Terminal() {
			t.Fatalf("job finished before the kill (state %s); loop too fast for the epoch grid", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !committed {
		t.Fatal("no epoch checkpoint committed before the kill window")
	}

	if err := proc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	proc.Wait()

	proc2, base2 := startServe(t, bin, dataDir)
	defer func() {
		proc2.Process.Signal(syscall.SIGKILL)
		proc2.Wait()
	}()

	j := waitTerminal(t, base2, id, 120*time.Second)
	if j.State != jobstore.StateSucceeded {
		t.Fatalf("recovered streaming job = %s: %+v", j.State, j.Error)
	}
	if j.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (the SIGKILL must have cost attempt 1)", j.Attempts)
	}

	// The recovered attempt started past event zero: it logged a
	// checkpoint-resume from an epoch >= 1 committed by the dead
	// attempt.
	var resume *jobstore.TraceEvent
	for i, ev := range j.Trace {
		if ev.Event == jobstore.TraceResume {
			resume = &j.Trace[i]
		}
	}
	if resume == nil {
		var evs []string
		for _, ev := range j.Trace {
			evs = append(evs, ev.Event)
		}
		t.Fatalf("recovered attempt restarted from event zero: no %s in trace %v", jobstore.TraceResume, evs)
	}
	if !strings.Contains(resume.Detail, "resumed from committed epoch") ||
		strings.Contains(resume.Detail, "epoch 0 ") {
		t.Fatalf("resume detail = %q, want a resume from a committed epoch >= 1", resume.Detail)
	}

	// The resumed streamed report is byte-identical to a buffered run
	// of the same program on the restarted daemon.
	buffered := waitTerminal(t, base2, submitProgram(t, base2, "", prog), 120*time.Second)
	if buffered.State != jobstore.StateSucceeded {
		t.Fatalf("buffered reference = %s: %+v", buffered.State, buffered.Error)
	}
	if len(j.Result.Report) == 0 || !bytes.Equal(j.Result.Report, buffered.Result.Report) {
		t.Fatal("resumed streamed report differs from the buffered reference")
	}
	if t.Failed() {
		fmt.Printf("data dir kept for inspection: %s\n", dataDir)
	}
}
