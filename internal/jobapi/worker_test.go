package jobapi_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polyprof/internal/faultinject"
	"polyprof/internal/jobapi"
	"polyprof/internal/jobexec"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/serve"
)

// startCoordinator runs a serve.Server with zero local pool workers —
// jobs only complete through the lease API.
func startCoordinator(t *testing.T, opts serve.Options) *httptest.Server {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	opts.Workers = -1
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func submitWorkload(t *testing.T, ts *httptest.Server, query string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs?"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %q = %d: %s", query, resp.StatusCode, body)
	}
	var sum jobstore.JobSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	return sum.ID
}

func getJob(t *testing.T, ts *httptest.Server, id string) *jobstore.Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?trace=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s = %d: %s", id, resp.StatusCode, body)
	}
	var j jobstore.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return &j
}

func waitState(t *testing.T, ts *httptest.Server, id string, want jobstore.State, timeout time.Duration) *jobstore.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j := getJob(t, ts, id)
		if j.State == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s): %+v", id, j.State, want, j)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerEndToEnd: a remote worker drains a coordinator's queue and
// two runs of the same workload produce byte-identical reports — the
// remote path preserves the pipeline's determinism.
func TestWorkerEndToEnd(t *testing.T) {
	ts := startCoordinator(t, serve.Options{})
	a := submitWorkload(t, ts, "workload=example1")
	b := submitWorkload(t, ts, "workload=example1&nocache=1")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: ts.URL,
		Name:        "e2e",
		Slots:       2,
		Poll:        25 * time.Millisecond,
		Exec:        jobexec.Options{Timeout: 30 * time.Second},
		Logf:        t.Logf,
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()

	ja := waitState(t, ts, a, jobstore.StateSucceeded, 30*time.Second)
	jb := waitState(t, ts, b, jobstore.StateSucceeded, 30*time.Second)
	cancel()
	<-done

	if ja.Attempts != 1 || jb.Attempts != 1 {
		t.Fatalf("attempts = %d, %d; want 1, 1", ja.Attempts, jb.Attempts)
	}
	if len(ja.Result.Report) == 0 || string(ja.Result.Report) != string(jb.Result.Report) {
		t.Fatalf("reports differ across identical remote runs:\n%s\nvs\n%s", ja.Result.Report, jb.Result.Report)
	}
	// The trace records the grant and the worker's shipped stage events.
	var sawLease, sawWorkerStage bool
	for _, ev := range ja.Trace {
		if ev.Event == jobstore.TraceLease {
			sawLease = true
		}
		if ev.Event == jobstore.TraceStage && ev.Detail == "worker e2e" {
			sawWorkerStage = true
		}
	}
	if !sawLease || !sawWorkerStage {
		t.Fatalf("trace missing lease/worker-stage events: %+v", ja.Trace)
	}
}

// TestWorkerContainsAttemptPanic: a panic inside a leased attempt is
// contained by the attempt runner — the worker posts a failed attempt
// instead of dying with all its slots, keeps claiming, and the
// coordinator's retry succeeds.
func TestWorkerContainsAttemptPanic(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	if err := faultinject.ArmString("jobexec.attempt=panic:boom:1"); err != nil {
		t.Fatal(err)
	}
	ts := startCoordinator(t, serve.Options{})
	id := submitWorkload(t, ts, "workload=example1")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: ts.URL,
		Name:        "panicky",
		Slots:       1,
		Poll:        25 * time.Millisecond,
		Exec:        jobexec.Options{Timeout: 30 * time.Second},
		Logf:        t.Logf,
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()

	j := waitState(t, ts, id, jobstore.StateSucceeded, 30*time.Second)
	cancel()
	<-done

	if j.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (a failed panicking attempt, then the retry)", j.Attempts)
	}
	retried := false
	for _, ev := range j.Trace {
		if ev.Event == jobstore.TraceRetry && strings.Contains(ev.Detail, "panicked") {
			retried = true
		}
	}
	if !retried {
		t.Fatalf("no retry naming the contained panic in the trace: %+v", j.Trace)
	}
	if len(j.Result.Report) == 0 {
		t.Fatal("no report after the retry")
	}
}

// TestLocalAndRemoteTraceKindsMatch: one job lifecycle for every kind
// of worker — a job run by a coordinator's local slot and the same job
// run by a remote worker leave the same sequence of lifecycle trace
// event kinds (intake, WAL append, queue wait, lease, stages, complete).
func TestLocalAndRemoteTraceKindsMatch(t *testing.T) {
	local, err := serve.New(serve.Options{DataDir: t.TempDir(), Workers: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	lts := httptest.NewServer(local.Handler())
	t.Cleanup(lts.Close)
	rts := startCoordinator(t, serve.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: rts.URL, Name: "remote", Slots: 1, Poll: 25 * time.Millisecond,
		Exec: jobexec.Options{Timeout: 30 * time.Second}, Logf: t.Logf,
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	kinds := func(j *jobstore.Job) []string {
		var out []string
		for _, ev := range j.Trace {
			out = append(out, ev.Event)
		}
		return out
	}
	for _, name := range []string{"example1", "example2", "backprop"} {
		query := "workload=" + name + "&nocache=1"
		lj := waitState(t, lts, submitWorkload(t, lts, query), jobstore.StateSucceeded, 30*time.Second)
		rj := waitState(t, rts, submitWorkload(t, rts, query), jobstore.StateSucceeded, 30*time.Second)
		lk, rk := kinds(lj), kinds(rj)
		if strings.Join(lk, " ") != strings.Join(rk, " ") {
			t.Fatalf("%s: trace kinds differ\nlocal:  %v\nremote: %v", name, lk, rk)
		}
		if lj.Lease != nil || rj.Lease != nil {
			t.Fatalf("%s: terminal job still shows a lease", name)
		}
	}
}

// TestWorkerAndLocalPoolShareQueue: a coordinator's local slots and a
// remote worker claim from one queue at the same time; every job runs
// exactly once, through one lease per attempt, to the same report.
func TestWorkerAndLocalPoolShareQueue(t *testing.T) {
	s, err := serve.New(serve.Options{DataDir: t.TempDir(), Workers: 2, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: ts.URL, Name: "remote", Slots: 2, Poll: 5 * time.Millisecond,
		Exec: jobexec.Options{Timeout: 30 * time.Second}, Logf: t.Logf,
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	var ids []string
	for i := 0; i < 12; i++ {
		ids = append(ids, submitWorkload(t, ts, "workload=example1&nocache=1"))
	}
	var report string
	for _, id := range ids {
		j := waitState(t, ts, id, jobstore.StateSucceeded, 30*time.Second)
		if j.Attempts != 1 {
			t.Fatalf("job %s took %d attempts", id, j.Attempts)
		}
		leases := 0
		for _, ev := range j.Trace {
			if ev.Event == jobstore.TraceLease {
				leases++
			}
		}
		if leases != 1 {
			t.Fatalf("job %s was leased %d times: %+v", id, leases, j.Trace)
		}
		if report == "" {
			report = string(j.Result.Report)
		} else if string(j.Result.Report) != report {
			t.Fatalf("job %s report differs", id)
		}
	}
}

// TestWorkerHeartbeatPartitionZombie: a worker whose heartbeats are
// partitioned loses its lease to the reclaimer mid-attempt; its late
// result post is fenced (no double-completion), and the re-queued job
// completes on the next attempt once the partition heals.
func TestWorkerHeartbeatPartitionZombie(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	// Slow attempts (sticky) so the lease TTL expires mid-run, and a
	// sticky heartbeat partition so the worker can't keep it alive.
	if err := faultinject.ArmString("jobexec.attempt=delay:1s:-1"); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.ArmString("jobapi.heartbeat=error:partition:-1"); err != nil {
		t.Fatal(err)
	}

	ts := startCoordinator(t, serve.Options{LeaseTTL: jobstore.MinLeaseTTL})
	id := submitWorkload(t, ts, "workload=example1")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: ts.URL,
		Name:        "flaky",
		Slots:       1,
		Poll:        25 * time.Millisecond,
		Exec:        jobexec.Options{Timeout: 30 * time.Second},
		Logf:        t.Logf,
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()

	// The 200ms lease dies under the 1s attempt: wait for the reclaim.
	deadline := time.Now().Add(15 * time.Second)
	for {
		j := getJob(t, ts, id)
		if j.State == jobstore.StateQueued && j.Attempts >= 1 && j.Lease == nil {
			break
		}
		if j.State == jobstore.StateSucceeded {
			t.Fatalf("job completed before the lease expired — partition did not bite: %+v", j)
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never reclaimed: %+v", j)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Heal the partition: the next attempt heartbeats normally (the
	// attempt delay stays armed — heartbeats now outlive it).
	faultinject.Point("jobapi.heartbeat").Disarm()

	j := waitState(t, ts, id, jobstore.StateSucceeded, 30*time.Second)
	cancel()
	<-done

	if j.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (reclaim must have re-queued)", j.Attempts)
	}
	if len(j.Result.Report) == 0 {
		t.Fatal("no report after recovery")
	}
	// Exactly one terminal transition: the zombie's post was fenced.
	completes := 0
	reclaims := 0
	for _, ev := range j.Trace {
		if ev.Event == jobstore.TraceComplete {
			completes++
		}
		if ev.Event == jobstore.TraceReclaim {
			reclaims++
		}
	}
	if completes != 1 {
		t.Fatalf("job completed %d times, want exactly 1: %+v", completes, j.Trace)
	}
	if reclaims == 0 {
		t.Fatalf("no reclaim event in trace: %+v", j.Trace)
	}
}

// TestWorkerStreamingCheckpointResume: a remote streaming attempt
// commits its epoch checkpoints through the lease-fenced endpoint; when
// the attempt dies mid-stream, the next grant carries the committed
// checkpoint and the retry resumes past event zero — with a final
// report byte-identical to a buffered run of the same workload.
func TestWorkerStreamingCheckpointResume(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	// Epoch 1's checkpoint commits; epoch 2's dies (retryable), killing
	// attempt 1 mid-stream.  The fault self-disarms, so attempt 2 runs
	// clean — and must resume from the committed epoch 1.
	if err := faultinject.ArmString("jobexec.checkpoint=error:chaos:2"); err != nil {
		t.Fatal(err)
	}

	ts := startCoordinator(t, serve.Options{})
	buffered := submitWorkload(t, ts, "workload=backprop")
	streamed := submitWorkload(t, ts, "workload=backprop&epoch-events=2000&nocache=1")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: ts.URL,
		Name:        "streamer",
		Slots:       1,
		Poll:        25 * time.Millisecond,
		Exec:        jobexec.Options{Timeout: 30 * time.Second},
		Logf:        t.Logf,
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()

	jb := waitState(t, ts, buffered, jobstore.StateSucceeded, 30*time.Second)
	js := waitState(t, ts, streamed, jobstore.StateSucceeded, 30*time.Second)
	cancel()
	<-done

	if js.Attempts < 2 {
		t.Fatalf("streaming job attempts = %d, want >= 2 (checkpoint fault must have killed attempt 1)", js.Attempts)
	}
	// The worker shipped the resume home as a trace event, proving the
	// retry restored the grant's checkpoint instead of starting over.
	var resume *jobstore.TraceEvent
	for i, ev := range js.Trace {
		if ev.Event == jobstore.TraceResume {
			resume = &js.Trace[i]
		}
	}
	if resume == nil {
		t.Fatalf("no %s event in trace: %+v", jobstore.TraceResume, js.Trace)
	}
	if !strings.Contains(resume.Detail, "worker streamer") || !strings.Contains(resume.Detail, "epoch 1") {
		t.Fatalf("resume detail = %q, want worker streamer resuming from epoch 1", resume.Detail)
	}
	if len(js.Result.Report) == 0 || string(js.Result.Report) != string(jb.Result.Report) {
		t.Fatal("resumed streamed report differs from the buffered run")
	}
}

// TestWorkerCoordinatorRestart: workers outlive a coordinator restart
// — claims fail while it is down, back off, and resume when a new
// coordinator (same data dir) comes up and re-queues the leased job.
func TestWorkerCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s1, err := serve.New(serve.Options{DataDir: dir, Workers: -1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	id := func() string {
		resp, err := http.Post(ts1.URL+"/v1/jobs?workload=example1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var sum jobstore.JobSummary
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatalf("%v: %s", err, body)
		}
		return sum.ID
	}()
	// Claim the job, then kill the coordinator with the lease live.
	client := &jobapi.Client{Base: ts1.URL, Worker: "doomed"}
	grant, err := client.Acquire(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Same data dir, new coordinator: replay re-queues the leased job
	// and fences every pre-restart token.
	s2, err := serve.New(serve.Options{DataDir: dir, Workers: -1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	client2 := &jobapi.Client{Base: ts2.URL, Worker: "doomed"}
	_, err = client2.Report(context.Background(), id, &jobapi.ResultRequest{
		Token:  grant.Lease.Token,
		Result: &jobstore.Result{Status: "ok", Report: json.RawMessage(`{"stale":true}`)},
	})
	if !errors.Is(err, jobapi.ErrFenced) {
		t.Fatalf("pre-restart token post = %v, want ErrFenced", err)
	}

	// A real worker pointed at the new coordinator finishes the job.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: ts2.URL,
		Name:        "survivor",
		Slots:       1,
		Poll:        25 * time.Millisecond,
		Exec:        jobexec.Options{Timeout: 30 * time.Second},
		Logf:        t.Logf,
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	j := waitState(t, ts2, id, jobstore.StateSucceeded, 30*time.Second)
	cancel()
	<-done
	if string(j.Result.Report) == `{"stale":true}` {
		t.Fatal("zombie result survived the restart fence")
	}
}
