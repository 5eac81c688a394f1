package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polyprof/internal/budget"
	"polyprof/internal/faultinject"
	"polyprof/internal/jobapi"
	"polyprof/internal/jobexec"
	"polyprof/internal/jobrec"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs/flight"
)

// The remote twins of the local bundle tests: a coordinator without
// local slots hands each job to an in-process jobapi.Worker, whose
// result post meets the same anomaly decision a local attempt does.

// runRemote runs the queued jobs on an in-process remote worker with
// the given attempt options until each is terminal, and returns them.
func runRemote(t *testing.T, ts *httptest.Server, exec jobexec.Options, ids ...string) []*jobstore.Job {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: ts.URL, Name: "remote-twin", Slots: 1, Poll: 25 * time.Millisecond, Exec: exec,
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()
	var jobs []*jobstore.Job
	for _, id := range ids {
		jobs = append(jobs, waitJob(t, ts, id))
	}
	return jobs
}

// submitJob submits a job and returns its summary (ID and trace ID).
func submitJob(t *testing.T, ts *httptest.Server, query string) jobstore.JobSummary {
	t.Helper()
	resp, body := postJob(t, ts, query, nil)
	var sum jobstore.JobSummary
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &sum) != nil {
		t.Fatalf("submit %s = %d: %s", query, resp.StatusCode, body)
	}
	return sum
}

// onlyBundle returns the one bundle in dir with the given reason,
// failing unless there is exactly one and it names the job and its
// trace.
func onlyBundle(t *testing.T, dir, reason string, sum jobstore.JobSummary) *flight.Bundle {
	t.Helper()
	infos, err := flight.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []flight.BundleInfo
	for _, in := range infos {
		if in.Reason == reason {
			got = append(got, in)
		}
	}
	if len(got) != 1 || got[0].Job != sum.ID || got[0].Trace != sum.TraceID || sum.TraceID == "" {
		t.Fatalf("%s bundles = %+v, want one for job %s trace %s", reason, got, sum.ID, sum.TraceID)
	}
	b, err := flight.ReadBundle(dir, got[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRemoteOptimizePanicBundleCarriesJobIDs: the remote twin of
// TestOptimizePanicBundleCarriesJobIDs.
func TestRemoteOptimizePanicBundleCarriesJobIDs(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts, dir := newFlightServer(t, Options{Workers: -1})
	if err := faultinject.ArmString("transform.apply=panic:chaos:1"); err != nil {
		t.Fatal(err)
	}
	sum := submitJob(t, ts, "workload=backprop&optimize=1&nocache=1")
	if j := runRemote(t, ts, jobexec.Options{Timeout: 30 * time.Second}, sum.ID)[0]; j.State != jobstore.StateFailed {
		t.Fatalf("job state = %s, want failed", j.State)
	}
	b := onlyBundle(t, dir, "stage-panic", sum)
	if b.Stage == "" {
		t.Fatalf("stage-panic bundle names no stage: %+v", b)
	}
	assertOldestFirst(t, b)
}

// TestRemoteBudgetExhaustionWritesBundle: the remote twin of
// TestBudgetExhaustionWritesBundle.  A worker's hard-budget abort
// freezes the coordinator's recorder with the job's budget event in
// the ring.
func TestRemoteBudgetExhaustionWritesBundle(t *testing.T) {
	_, ts, dir := newFlightServer(t, Options{Workers: -1})
	sum := submitJob(t, ts, "workload=example1")
	exec := jobexec.Options{Limits: budget.Limits{MaxSteps: 10}, Timeout: 30 * time.Second}
	if j := runRemote(t, ts, exec, sum.ID)[0]; j.State != jobstore.StateFailed || j.Error.Status != "budget" {
		t.Fatalf("job = %s %+v, want failed with status budget", j.State, j.Error)
	}
	b := onlyBundle(t, dir, "budget-exhausted", sum)
	var sawBudget bool
	for _, ev := range b.Events {
		sawBudget = sawBudget || ev.Kind == "budget" && ev.Name == budget.ResourceSteps && ev.Trace == sum.TraceID
	}
	if !sawBudget {
		t.Fatalf("bundle ring has no budget event for trace %s: %+v", sum.TraceID, b.Events)
	}
}

// TestRemoteSlowJobWritesBundle: the remote twin of
// TestSlowJobWatchdogWritesBundle.  A remote attempt that ran past the
// coordinator's threshold leaves one slow-job bundle while the job
// still completes normally.
func TestRemoteSlowJobWritesBundle(t *testing.T) {
	_, ts, dir := newFlightServer(t, Options{Workers: -1, SlowJobThreshold: time.Nanosecond})
	sum := submitJob(t, ts, "workload=example1")
	if j := runRemote(t, ts, jobexec.Options{Timeout: 30 * time.Second}, sum.ID)[0]; j.State != jobstore.StateSucceeded {
		t.Fatalf("job state = %s", j.State)
	}
	onlyBundle(t, dir, "slow-job", sum)
}

// TestLeaseResultWithoutVerdict: a failure posted in the form workers
// used before failures carried a verdict is accepted, and fires no
// pipeline trigger — only the store's own quarantine bundle.
func TestLeaseResultWithoutVerdict(t *testing.T) {
	_, ts, dir := newFlightServer(t, Options{Workers: -1})
	sum := submitJob(t, ts, "workload=example1")
	_, grant := acquireLease(t, ts, "old-worker", time.Second)
	if grant == nil {
		t.Fatal("no grant")
	}
	body := fmt.Sprintf(`{"token":%d,"error":{"message":"budget: vm-steps exhausted in vm","terminal":true,`+
		`"budget":{"resource":"vm-steps","stage":"vm","limit":10,"used":11},"span_id":3,"attempt":1}}`, grant.Lease.Token)
	resp, err := http.Post(ts.URL+"/v1/leases/"+sum.ID+"/result", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post without verdict = %d, want 200", resp.StatusCode)
	}
	if j := waitJob(t, ts, sum.ID); j.State != jobstore.StateFailed || j.Error.Verdict != (jobrec.Verdict{}) {
		t.Fatalf("job = %s %+v, want failed with no verdict", j.State, j.Error)
	}
	infos, err := flight.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Reason != "job-quarantine" {
		t.Fatalf("bundles = %+v, want only job-quarantine", infos)
	}
}
