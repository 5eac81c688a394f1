package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polyprof/internal/budget"
	"polyprof/internal/faultinject"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
)

// newFlightServer builds a test daemon with the durable subsystem (and
// therefore the flight recorder) enabled, returning the bundle dir.
// The global Default recorder is disabled again at cleanup so later
// tests in the package start from the quiescent state.
func newFlightServer(t *testing.T, opts Options) (*Server, *httptest.Server, string) {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	s, ts := newTestServer(t, opts)
	t.Cleanup(flight.Default.Disable)
	return s, ts, filepath.Join(opts.DataDir, "flightrec")
}

func countBundles(t *testing.T, dir string) int {
	t.Helper()
	infos, err := flight.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(infos)
}

// waitBundles polls until the bundle dir holds want bundles (triggers
// may fire from watchdog or worker goroutines).
func waitBundles(t *testing.T, dir string, want int) []flight.BundleInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		infos, err := flight.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) >= want {
			return infos
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("bundle dir %s never reached %d bundles", dir, want)
	return nil
}

// TestInboundRequestIDSeedsTrace: a client-chosen X-Request-ID is
// echoed on the response and becomes the job's trace ID, visible in
// the summary and threaded into the persisted lifecycle trace.
func TestInboundRequestIDSeedsTrace(t *testing.T) {
	_, ts, _ := newFlightServer(t, Options{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?workload=example1", nil)
	req.Header.Set("X-Request-ID", "client-trace-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-trace-7" {
		t.Fatalf("X-Request-ID = %q, want the inbound id echoed", got)
	}
	var sum jobstore.JobSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.TraceID != "client-trace-7" {
		t.Fatalf("job TraceID = %q, want client-trace-7", sum.TraceID)
	}

	j := waitJob(t, ts, sum.ID)
	if j.State != jobstore.StateSucceeded {
		t.Fatalf("job state = %s", j.State)
	}
	// Default view elides the trace; ?trace=1 returns it.
	if j.Trace != nil {
		t.Fatalf("plain GET leaked the trace: %d events", len(j.Trace))
	}
	resp2, body := get(t, ts, "/v1/jobs/"+sum.ID+"?trace=1")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("?trace=1 = %d: %s", resp2.StatusCode, body)
	}
	var traced jobstore.Job
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.TraceID != "client-trace-7" || len(traced.Trace) == 0 {
		t.Fatalf("traced job = id %q, %d events", traced.TraceID, len(traced.Trace))
	}
	seen := map[string]bool{}
	for _, ev := range traced.Trace {
		seen[ev.Event] = true
	}
	for _, want := range []string{
		jobstore.TraceIntake, jobstore.TraceWALAppend, jobstore.TraceQueueWait,
		jobstore.TraceLease, jobstore.TraceStage, jobstore.TraceComplete,
	} {
		if !seen[want] {
			t.Fatalf("lifecycle trace missing %q: %+v", want, traced.Trace)
		}
	}

	// ?trace=chrome renders the lifecycle as a Perfetto document with a
	// queue-wait track.
	resp3, body := get(t, ts, "/v1/jobs/"+sum.ID+"?trace=chrome")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("?trace=chrome = %d: %s", resp3.StatusCode, body)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var sawQueue, sawStage bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "queue-wait" {
			sawQueue = true
		}
		if ev.Name == "pass2-ddg" {
			sawStage = true
		}
	}
	if !sawQueue || !sawStage {
		t.Fatalf("chrome trace missing queue-wait/stage tracks (queue=%v stage=%v)", sawQueue, sawStage)
	}
}

// TestOversizedInboundRequestIDIgnored: a hostile X-Request-ID is
// replaced with a generated one instead of being threaded through logs
// and bundles.
func TestOversizedInboundRequestIDIgnored(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", strings.Repeat("x", 500))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "req-") {
		t.Fatalf("X-Request-ID = %q, want a generated req-N", got)
	}
}

// TestFlightEndpointsDisabledWithoutDataDir: without a data dir there
// is no recorder; the API says so with 503 rather than 404.
func TestFlightEndpointsDisabledWithoutDataDir(t *testing.T) {
	flight.Default.Disable()
	_, ts := newTestServer(t, Options{})
	if resp, _ := get(t, ts, "/v1/flight"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/flight = %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/flight/fr-x"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/flight/{id} = %d, want 503", resp.StatusCode)
	}
}

// TestServe5xxWritesBundleAndFlightAPI: a handler panic (500) freezes
// the recorder; the bundle is listable and readable over the API.
func TestServe5xxWritesBundleAndFlightAPI(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts, dir := newFlightServer(t, Options{})
	if err := faultinject.ArmString("serve.handler=panic:boom:1"); err != nil {
		t.Fatal(err)
	}
	resp, body := postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", resp.StatusCode, body)
	}
	infos := waitBundles(t, dir, 1)
	if infos[0].Reason != "serve-5xx" {
		t.Fatalf("bundle reason = %q, want serve-5xx", infos[0].Reason)
	}
	if infos[0].Trace == "" {
		t.Fatal("serve-5xx bundle without a trace id")
	}

	resp, body = get(t, ts, "/v1/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/flight = %d: %s", resp.StatusCode, body)
	}
	var list struct {
		Bundles []flight.BundleInfo `json:"bundles"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Bundles) != 1 || list.Bundles[0].ID != infos[0].ID {
		t.Fatalf("API list = %+v, want %s", list.Bundles, infos[0].ID)
	}

	resp, body = get(t, ts, "/v1/flight/"+infos[0].ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/flight/{id} = %d: %s", resp.StatusCode, body)
	}
	var b flight.Bundle
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatalf("bundle body does not parse: %v", err)
	}
	if b.Reason != "serve-5xx" || len(b.Events) == 0 || b.Goroutines == "" {
		t.Fatalf("bundle = reason %q, %d events, %d profile bytes",
			b.Reason, len(b.Events), len(b.Goroutines))
	}
	if resp, _ := get(t, ts, "/v1/flight/fr-does-not-exist"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown bundle = %d, want 404", resp.StatusCode)
	}

	// DELETE prunes the triaged bundle; a second delete is a 404.
	del := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/flight/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(infos[0].ID); code != http.StatusOK {
		t.Fatalf("DELETE /v1/flight/{id} = %d, want 200", code)
	}
	resp, body = get(t, ts, "/v1/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/flight after delete = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Bundles) != 0 {
		t.Fatalf("bundles after delete = %+v, want none", list.Bundles)
	}
	if code := del(infos[0].ID); code != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", code)
	}
	if code := del("../escape"); code != http.StatusNotFound {
		t.Fatalf("DELETE with traversal id = %d, want 404", code)
	}
}

// TestChaosFaultPointsOneBundleEach: every reachable armed fault point
// in panic mode yields exactly one flight bundle — panics contained in
// a stage trigger via RecoverStage, persistence panics via the 500
// path, parallel-engine panics via the engine's failure latch.
func TestChaosFaultPointsOneBundleEach(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	cases := []struct {
		point    string
		parallel int
		reason   string
		viaJob   bool
	}{
		{point: "vm.step", reason: "stage-panic"},
		{point: "ddg.shadow.insert", reason: "stage-panic"},
		{point: "fold.finish", reason: "stage-panic"},
		{point: "sched.build", reason: "stage-panic"},
		{point: "serve.handler", reason: "serve-5xx"},
		{point: "jobstore.wal.append", reason: "serve-5xx", viaJob: true},
		// A shard-goroutine panic is caught by the engine's fail latch
		// (parddg-failure); a merge panic unwinds the calling goroutine
		// and is caught by the stage recovery wrapper (stage-panic).
		{point: "parddg.shard.insert", parallel: 2, reason: "parddg-failure"},
		{point: "parddg.merge", parallel: 2, reason: "stage-panic"},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			_, ts, dir := newFlightServer(t, Options{ParallelDDG: tc.parallel})
			before := countBundles(t, dir)
			if err := faultinject.ArmString(fmt.Sprintf("%s=panic:chaos:1", tc.point)); err != nil {
				t.Fatal(err)
			}
			defer faultinject.DisarmAll()
			if tc.viaJob {
				resp, body := postJob(t, ts, "workload=example1", nil)
				if resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("faulted submit = %d, want 500: %s", resp.StatusCode, body)
				}
			} else {
				resp, _ := postProfile(t, ts, "workload=example1")
				if resp.StatusCode < 400 {
					t.Fatalf("faulted profile = %d, want an error", resp.StatusCode)
				}
			}
			infos := waitBundles(t, dir, before+1)
			// Exactly one: give any stray second trigger a moment, then
			// recount.
			time.Sleep(50 * time.Millisecond)
			if got := countBundles(t, dir); got != before+1 {
				all, _ := flight.List(dir)
				t.Fatalf("bundles = %d, want exactly %d: %+v", got, before+1, all)
			}
			if infos[0].Reason != tc.reason {
				t.Fatalf("bundle reason = %q, want %q", infos[0].Reason, tc.reason)
			}
		})
	}
}

// TestBudgetExhaustionWritesBundle: a deterministic hard-budget abort
// (422 "budget") freezes the recorder with the budget events in the
// ring.
func TestBudgetExhaustionWritesBundle(t *testing.T) {
	_, ts, dir := newFlightServer(t, Options{
		Limits: budget.Limits{MaxSteps: 10},
	})
	resp, body := postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, body)
	}
	infos := waitBundles(t, dir, 1)
	if infos[0].Reason != "budget-exhausted" {
		t.Fatalf("bundle reason = %q, want budget-exhausted", infos[0].Reason)
	}
	b, err := flight.ReadBundle(dir, infos[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var sawBudget bool
	for _, ev := range b.Events {
		if ev.Kind == "budget" {
			sawBudget = true
		}
	}
	if !sawBudget {
		t.Fatalf("bundle ring has no budget event: %+v", b.Events)
	}
}

// TestSlowJobWatchdogWritesBundle: an attempt outliving the threshold
// triggers a slow-job bundle while the job still completes normally.
func TestSlowJobWatchdogWritesBundle(t *testing.T) {
	_, ts, dir := newFlightServer(t, Options{SlowJobThreshold: time.Nanosecond})
	resp, body := postJob(t, ts, "workload=example1", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sum jobstore.JobSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	j := waitJob(t, ts, sum.ID)
	if j.State != jobstore.StateSucceeded {
		t.Fatalf("job state = %s", j.State)
	}
	infos := waitBundles(t, dir, 1)
	var slow *flight.BundleInfo
	for i := range infos {
		if infos[i].Reason == "slow-job" {
			slow = &infos[i]
		}
	}
	if slow == nil {
		t.Fatalf("no slow-job bundle: %+v", infos)
	}
	if slow.Job != sum.ID {
		t.Fatalf("slow-job bundle names job %q, want %q", slow.Job, sum.ID)
	}
}

// TestParallelDiagnosisInBundleAndMetrics: a parallel profile request's
// diagnosis, read from its spans, lands in the next flight bundle, and
// the engine's gauges reach /metrics with no wiring in the handler.
func TestParallelDiagnosisInBundleAndMetrics(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts, dir := newFlightServer(t, Options{ParallelDDG: 2})
	if resp, body := postProfile(t, ts, "workload=example1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("profile = %d: %s", resp.StatusCode, body)
	}
	if err := faultinject.ArmString("serve.handler=panic:diag:1"); err != nil {
		t.Fatal(err)
	}
	if resp, body := postProfile(t, ts, "workload=example1"); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted profile = %d, want 500: %s", resp.StatusCode, body)
	}
	infos := waitBundles(t, dir, 1)
	resp, body := get(t, ts, "/v1/flight/"+infos[0].ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/flight/{id} = %d: %s", resp.StatusCode, body)
	}
	var b flight.Bundle
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	var diag struct {
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(b.Diagnosis, &diag); err != nil || diag.Shards != 2 {
		t.Fatalf("bundle sampler section = %s (%v), want the 2-shard diagnosis", b.Diagnosis, err)
	}
	assertParallelMetrics(t, ts)
}

// TestParallelJobMetrics: a parallel job's attempt registry carries the
// engine's gauges into /metrics.
func TestParallelJobMetrics(t *testing.T) {
	_, ts, _ := newFlightServer(t, Options{ParallelDDG: 2})
	resp, body := postJob(t, ts, "workload=example1", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sum jobstore.JobSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if j := waitJob(t, ts, sum.ID); j.State != jobstore.StateSucceeded {
		t.Fatalf("job state = %s", j.State)
	}
	assertParallelMetrics(t, ts)
}

func assertParallelMetrics(t *testing.T, ts *httptest.Server) {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	for _, family := range []string{"polyprof_ddg_seq_busy_ratio_pct100", "polyprof_ddg_par_serial_frac_pct100"} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics lacks %s:\n%s", family, body)
		}
	}
}
