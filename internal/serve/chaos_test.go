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
	"polyprof/internal/jobstore"
	"polyprof/internal/workloads"
)

// chaosCheckAlive asserts the daemon still answers /healthz and then
// serves a clean profile — the core liveness property every injected
// fault must preserve.
func chaosCheckAlive(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after fault: /healthz = %d: %s", resp.StatusCode, body)
	}
	resp, body = postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean profile after fault = %d: %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil || pr.Status != "ok" {
		t.Fatalf("clean profile after fault: status %q err %v", pr.Status, err)
	}
}

// TestChaosEveryFaultPoint walks every registered fault point with
// every fatal injection mode: the request must fail with a structured
// JSON error (4xx/5xx, never a dropped connection) and the daemon must
// keep serving afterwards.
func TestChaosEveryFaultPoint(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts := newTestServer(t, Options{})

	points := faultinject.Names()
	if len(points) < 5 {
		t.Fatalf("expected at least 5 registered fault points, got %v", points)
	}
	for _, point := range points {
		if strings.HasPrefix(point, "jobstore.") {
			// The job-store persistence points never fire on the
			// synchronous /v1/profile path; their chaos suite (crash,
			// reopen, no-loss invariants) lives in internal/jobstore.
			continue
		}
		if strings.HasPrefix(point, "jobexec.") || strings.HasPrefix(point, "jobapi.") {
			// The attempt-runner and lease-protocol points fire on the
			// async job path, not on synchronous /v1/profile; their chaos
			// suites live with the lease tests and the multi-process
			// cluster suite (cmd/polyprof).
			continue
		}
		if strings.HasPrefix(point, "transform.") {
			// The schedule-application points fire only on the optimize
			// job path (?optimize=1), never on synchronous /v1/profile.
			// TestChaosMidOptimizePanic covers them.
			continue
		}
		if point == "fold.epoch.merge" {
			// Fires only while a streaming epoch boundary captures folder
			// state — never on a buffered /v1/profile run.
			// TestChaosStreamingEpochFaults covers it below.
			continue
		}
		if strings.HasPrefix(point, "parddg.") {
			// The parallel-engine points never fire on a sequential
			// daemon; TestChaosParallelEngineFaults walks them against a
			// -parallel-ddg server below.
			continue
		}
		for _, mode := range []string{"panic", "error", "budget"} {
			t.Run(point+"/"+mode, func(t *testing.T) {
				if err := faultinject.ArmString(fmt.Sprintf("%s=%s:chaos:1", point, mode)); err != nil {
					t.Fatal(err)
				}
				defer faultinject.DisarmAll()
				resp, body := postProfile(t, ts, "workload=example1")
				if resp.StatusCode < 400 {
					t.Fatalf("injected %s at %s: status %d, want >= 400: %s",
						mode, point, resp.StatusCode, body)
				}
				var pr ProfileResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					t.Fatalf("fault response is not JSON: %v: %s", err, body)
				}
				if pr.Status == "ok" || pr.Error == "" {
					t.Fatalf("fault response = status %q error %q", pr.Status, pr.Error)
				}
				chaosCheckAlive(t, ts)
			})
		}
	}
}

// TestChaosStreamingEpochFaults arms the streaming-mode fault points
// against a store-backed daemon running streaming jobs.
//
// jobexec.checkpoint is the kill-9-shaped fault: the attempt dies at
// the second epoch's checkpoint persist, after epoch 1 committed.  The
// failure must classify retryable, and the retried attempt must resume
// from the committed epoch — not event zero — and still produce a final
// report byte-identical to a fault-free buffered run.
//
// fold.epoch.merge fires inside the epoch state capture itself; there
// is no committed state to fall back to mid-capture, so the attempt
// fails structurally and the daemon keeps serving.
func TestChaosStreamingEpochFaults(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})

	runJob := func(t *testing.T, query string) *jobstore.Job {
		t.Helper()
		resp, body := postJob(t, ts, query, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %q = %d: %s", query, resp.StatusCode, body)
		}
		var sum jobstore.JobSummary
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatal(err)
		}
		return waitJob(t, ts, sum.ID)
	}

	// Fault-free buffered reference for the byte-equality assertion.
	want := runJob(t, "workload=backprop")
	if want.State != jobstore.StateSucceeded {
		t.Fatalf("reference job = %s", want.State)
	}

	t.Run("jobexec.checkpoint/resume", func(t *testing.T) {
		if err := faultinject.ArmString("jobexec.checkpoint=error:chaos:2"); err != nil {
			t.Fatal(err)
		}
		defer faultinject.DisarmAll()
		j := runJob(t, "workload=backprop&epoch-events=2000&nocache=1")
		if j.State != jobstore.StateSucceeded {
			t.Fatalf("streaming job after checkpoint fault = %s: %+v", j.State, j.Error)
		}
		if j.Attempts < 2 {
			t.Fatalf("attempts = %d, want >= 2 (fault must have killed attempt 1)", j.Attempts)
		}
		// The plain GET elides the lifecycle trace; re-read with ?trace=1
		// for the resume assertion.
		resp, body := get(t, ts, "/v1/jobs/"+j.ID+"?trace=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET ?trace=1 = %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, j); err != nil {
			t.Fatal(err)
		}
		resumed := false
		for _, ev := range j.Trace {
			if ev.Event == jobstore.TraceResume {
				resumed = true
				if !strings.Contains(ev.Detail, "epoch 1") {
					t.Fatalf("resume event = %q, want resume from committed epoch 1", ev.Detail)
				}
			}
		}
		if !resumed {
			t.Fatalf("no %s event in trace: %+v", jobstore.TraceResume, j.Trace)
		}
		if string(j.Result.Report) != string(want.Result.Report) {
			t.Fatal("resumed streaming report differs from buffered reference")
		}
		chaosCheckAlive(t, ts)
	})

	t.Run("fold.epoch.merge/contained", func(t *testing.T) {
		if err := faultinject.ArmString("fold.epoch.merge=error:chaos:1"); err != nil {
			t.Fatal(err)
		}
		defer faultinject.DisarmAll()
		j := runJob(t, "workload=example1&epoch-events=20&nocache=1")
		if !j.State.Terminal() {
			t.Fatalf("job state = %s, want terminal", j.State)
		}
		if j.State == jobstore.StateFailed && (j.Error == nil || j.Error.Message == "") {
			t.Fatalf("failed without a structured error: %+v", j)
		}
		chaosCheckAlive(t, ts)

		// Clean streaming run after the contained fault still matches the
		// buffered reference byte for byte.
		clean := runJob(t, "workload=backprop&epoch-events=2000&nocache=1")
		if clean.State != jobstore.StateSucceeded {
			t.Fatalf("clean streaming job = %s: %+v", clean.State, clean.Error)
		}
		if string(clean.Result.Report) != string(want.Result.Report) {
			t.Fatal("clean streaming report differs from buffered reference")
		}
	})
}

// TestChaosHandlerPanic500: a panic in the handler body becomes a 500
// with an error and a span id in the body, bumps serve.panics, and the
// daemon survives.
func TestChaosHandlerPanic500(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	s, ts := newTestServer(t, Options{})
	if err := faultinject.ArmString("serve.handler=panic:boom:1"); err != nil {
		t.Fatal(err)
	}
	resp, body := postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Status != "panic" || pr.Error == "" || pr.SpanID == 0 {
		t.Fatalf("panic response = %+v", pr)
	}
	if got := s.reg.Counter("serve.panics").Value(); got != 1 {
		t.Fatalf("serve.panics = %d, want 1", got)
	}
	chaosCheckAlive(t, ts)
}

// TestChaosRequestTimeout408: an expired request budget maps to 408
// with status "timeout" and bumps the timeout counter.
func TestChaosRequestTimeout408(t *testing.T) {
	s, ts := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	resp, body := postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408: %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Status != "timeout" {
		t.Fatalf("status = %q, want timeout (%s)", pr.Status, pr.Error)
	}
	if got := s.reg.Counter("serve.requests.timeouts").Value(); got != 1 {
		t.Fatalf("serve.requests.timeouts = %d, want 1", got)
	}
	// Every request on this server times out by construction, so only
	// liveness — not a clean profile — can be checked here.
	if resp, body := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after timeout: %d: %s", resp.StatusCode, body)
	}
}

// TestChaosClientDisconnectCancels: a request whose context is already
// canceled (the client hung up) aborts with status "canceled", which
// the handler maps to 499.
func TestChaosClientDisconnectCancels(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := workloads.ByName("example1")
	resp := s.runProfile(ctx, "req-cancel", *spec, false)
	if resp.Status != "canceled" {
		t.Fatalf("status = %q (%s), want canceled", resp.Status, resp.Error)
	}
	if got := httpStatus(resp.Status); got != StatusClientClosedRequest {
		t.Fatalf("httpStatus(canceled) = %d, want %d", got, StatusClientClosedRequest)
	}
	if got := s.reg.Counter("serve.requests.canceled").Value(); got != 1 {
		t.Fatalf("serve.requests.canceled = %d, want 1", got)
	}
}

// TestChaosShadowBudgetDegrades200: a request under a tiny shadow
// budget still succeeds — the report is degraded, not denied.
func TestChaosShadowBudgetDegrades200(t *testing.T) {
	s, ts := newTestServer(t, Options{Limits: budget.Limits{MaxShadowBytes: 4096}})
	resp, body := postProfile(t, ts, "workload=nn")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Degraded {
		t.Fatal("response not marked degraded")
	}
	found := false
	for _, b := range pr.Budget {
		if b == budget.ResourceShadowBytes {
			found = true
		}
	}
	if !found {
		t.Fatalf("budget list = %v, want %s", pr.Budget, budget.ResourceShadowBytes)
	}
	// The embedded report carries the degradation section.
	var rep struct {
		Degraded    bool `json:"degraded"`
		Degradation *struct {
			Budgets []string `json:"budgets"`
		} `json:"degradation"`
	}
	if err := json.Unmarshal(pr.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.Degradation == nil || len(rep.Degradation.Budgets) == 0 {
		t.Fatalf("report degradation section = %+v", rep)
	}
	if got := s.reg.Counter("serve.requests.degraded").Value(); got != 1 {
		t.Fatalf("serve.requests.degraded = %d, want 1", got)
	}
}

// TestChaosParallelEngineFaults walks the parallel-engine fault points
// against a daemon tracking dependences on the sharded engine: every
// fatal injection must surface as a structured JSON error while the
// daemon keeps serving — no worker deadlock, no leaked batch barrier.
func TestChaosParallelEngineFaults(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts := newTestServer(t, Options{ParallelDDG: 2})
	for _, point := range []string{"parddg.batch.dispatch", "parddg.shard.insert", "parddg.merge"} {
		for _, mode := range []string{"panic", "error", "budget"} {
			t.Run(point+"/"+mode, func(t *testing.T) {
				if err := faultinject.ArmString(fmt.Sprintf("%s=%s:chaos:1", point, mode)); err != nil {
					t.Fatal(err)
				}
				defer faultinject.DisarmAll()
				resp, body := postProfile(t, ts, "workload=example1")
				if resp.StatusCode < 400 {
					t.Fatalf("injected %s at %s: status %d, want >= 400: %s",
						mode, point, resp.StatusCode, body)
				}
				var pr ProfileResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					t.Fatalf("fault response is not JSON: %v: %s", err, body)
				}
				if pr.Status == "ok" || pr.Error == "" {
					t.Fatalf("fault response = status %q error %q", pr.Status, pr.Error)
				}
				// chaosCheckAlive profiles sequentially; this daemon is
				// parallel, so the clean profile also re-exercises the
				// engine end to end after the contained fault.
				chaosCheckAlive(t, ts)
			})
		}
	}
}

// TestChaosInjectedShadowBudgetDegradesParallel: the parallel engine's
// shard-insert point under injected shadow exhaustion degrades exactly
// like the sequential engine — a 200 with the degradation section, not
// an error.
func TestChaosInjectedShadowBudgetDegradesParallel(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts := newTestServer(t, Options{ParallelDDG: 2})
	if err := faultinject.ArmString("parddg.shard.insert=budget:shadow-bytes:1"); err != nil {
		t.Fatal(err)
	}
	resp, body := postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want degraded 200: %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Status != "ok" || !pr.Degraded {
		t.Fatalf("response = status %q degraded %v", pr.Status, pr.Degraded)
	}
	chaosCheckAlive(t, ts)
}

// TestChaosInjectedShadowBudgetDegrades: injecting shadow exhaustion
// at the shadow-insert fault point behaves exactly like the organic
// trip — degraded 200, daemon alive.
func TestChaosInjectedShadowBudgetDegrades(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts := newTestServer(t, Options{})
	if err := faultinject.ArmString("ddg.shadow.insert=budget:shadow-bytes:1"); err != nil {
		t.Fatal(err)
	}
	resp, body := postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want degraded 200: %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Status != "ok" || !pr.Degraded {
		t.Fatalf("response = status %q degraded %v", pr.Status, pr.Degraded)
	}
	chaosCheckAlive(t, ts)
}
