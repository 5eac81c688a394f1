package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Registry == nil {
		r := obs.NewRegistry()
		opts.Registry = r
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postProfile(t *testing.T, ts *httptest.Server, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/profile?"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestProfileRequestSpanTree(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postProfile(t, ts, "workload=example1&metrics=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got == "" {
		t.Fatal("missing X-Request-ID header")
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("response does not parse: %v", err)
	}
	if pr.Status != "ok" || pr.Ops == 0 || len(pr.Report) == 0 {
		t.Fatalf("response = status %q ops %d report %d bytes", pr.Status, pr.Ops, len(pr.Report))
	}

	// The span tree: one request root, every stage a child of it.
	var root *obs.SpanRecord
	byName := map[string]obs.SpanRecord{}
	for i := range pr.Spans {
		sp := pr.Spans[i]
		byName[sp.Name] = sp
		if sp.Name == "request:example1" {
			root = &pr.Spans[i]
		}
	}
	if root == nil {
		t.Fatalf("no request root span; got %v", names(pr.Spans))
	}
	for _, stage := range []string{"pass1-structure", "pass2-ddg", "fold-finish", "sched-build", "feedback-analyze"} {
		sp, ok := byName[stage]
		if !ok {
			t.Fatalf("missing stage span %q; got %v", stage, names(pr.Spans))
		}
		if sp.Parent != root.ID {
			t.Errorf("stage %q parent = %d, want request root %d", stage, sp.Parent, root.ID)
		}
		if sp.Status != "ok" {
			t.Errorf("stage %q status = %q", stage, sp.Status)
		}
	}
	if pr.Metrics == nil || len(pr.Metrics.Counters) == 0 {
		t.Fatal("metrics=1 returned no request-scoped counters")
	}
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// counterMap extracts the request-scoped counters of a response.
func counterMap(t *testing.T, body []byte) map[string]uint64 {
	t.Helper()
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Metrics == nil {
		t.Fatal("response missing metrics section")
	}
	out := map[string]uint64{}
	for _, c := range pr.Metrics.Counters {
		out[c.Name] = c.Value
	}
	return out
}

// TestConcurrentRequestsIsolated is the acceptance test for per-request
// isolation: two different workloads profiled in parallel must report
// exactly the request-scoped counters a solo run reports — no bleed
// between the concurrent registries.  Run under -race this also
// validates the scope threading through the pipeline.
func TestConcurrentRequestsIsolated(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxInFlight: 4})

	// Solo baselines (workload builds are deterministic).
	_, b1 := postProfile(t, ts, "workload=example1&metrics=1")
	_, b2 := postProfile(t, ts, "workload=example2&metrics=1")
	want1 := counterMap(t, b1)
	want2 := counterMap(t, b2)
	if want1["ddg.events.instr"] == 0 || want2["ddg.events.instr"] == 0 {
		t.Fatalf("baselines lack instruction counters: %v / %v", want1, want2)
	}
	if want1["ddg.events.instr"] == want2["ddg.events.instr"] {
		t.Fatal("baseline workloads indistinguishable; test cannot detect bleed")
	}

	const rounds = 3
	var wg sync.WaitGroup
	bodies := make([][]byte, 2*rounds)
	for i := 0; i < rounds; i++ {
		for j, wl := range []string{"example1", "example2"} {
			wg.Add(1)
			go func(slot int, wl string) {
				defer wg.Done()
				_, body := postProfile(t, ts, "workload="+wl+"&metrics=1")
				bodies[slot] = body
			}(2*i+j, wl)
		}
	}
	wg.Wait()

	for i, body := range bodies {
		want := want1
		if i%2 == 1 {
			want = want2
		}
		got := counterMap(t, body)
		for _, key := range []string{"ddg.events.instr", "vm.instructions", "fold.streams", "sched.deps"} {
			if got[key] != want[key] {
				t.Errorf("request %d counter %s = %d, want %d (per-request metrics bled)",
					i, key, got[key], want[key])
			}
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInFlight: 1})
	// Fill the only slot so the next request is shed.
	s.sem <- struct{}{}
	resp, body := postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-s.sem
	if got := s.reg.Counter("serve.rejected").Value(); got != 1 {
		t.Fatalf("serve.rejected = %d, want 1", got)
	}
	// Slot free again: the request succeeds.
	resp, body = postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after drain = %d: %s", resp.StatusCode, body)
	}
}

func TestRequestRingAndErrors(t *testing.T) {
	s, ts := newTestServer(t, Options{RingSize: 2})
	resp, body := postProfile(t, ts, "workload=nosuch")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload status = %d: %s", resp.StatusCode, body)
	}
	// Error paths carry a request ID too: the middleware assigns one
	// before the handler runs.
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("404 response without X-Request-ID")
	}
	resp, _ = postProfile(t, ts, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing workload status = %d", resp.StatusCode)
	}
	for i := 0; i < 3; i++ {
		postProfile(t, ts, "workload=example1")
	}
	resp, body = get(t, ts, "/v1/requests")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/requests status = %d", resp.StatusCode)
	}
	var ring struct {
		Requests []RequestSummary `json:"requests"`
	}
	if err := json.Unmarshal(body, &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Requests) != 2 {
		t.Fatalf("ring holds %d summaries, want RingSize=2", len(ring.Requests))
	}
	// Newest first.  Every request (including the 404 and 400 above)
	// consumed an ID from the middleware, so the successful profiles are
	// req-3..req-5.
	if ring.Requests[0].ID != "req-5" || ring.Requests[1].ID != "req-4" {
		t.Fatalf("ring order = %s, %s", ring.Requests[0].ID, ring.Requests[1].ID)
	}
	if got := s.reg.Counter("serve.requests").Value(); got != 3 {
		t.Fatalf("serve.requests = %d, want 3", got)
	}
}

func TestTraceAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postProfile(t, ts, "workload=example1&trace=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace body does not parse: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "request:example1" {
			found = true
		}
	}
	if !found {
		t.Fatal("trace missing the request root complete event")
	}

	// Process /metrics: Prometheus by default, JSON on request; the
	// merged per-request counters must be visible.
	resp, body = get(t, ts, "/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !strings.Contains(string(body), "polyprof_serve_requests") ||
		!strings.Contains(string(body), "polyprof_vm_instructions") {
		t.Fatalf("prometheus exposition missing merged counters:\n%s", body)
	}
	resp, body = get(t, ts, "/metrics?format=json")
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics?format=json does not parse: %v", err)
	}
	for _, h := range snap.Histograms {
		if h.Name == "serve.request.wall_ns" && h.P50 > 0 {
			return
		}
	}
	t.Fatalf("JSON metrics missing serve.request.wall_ns percentiles: %+v", snap.Histograms)
}

func TestWorkloadsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, body := get(t, ts, "/v1/workloads")
	var wl struct {
		Workloads []string `json:"workloads"`
	}
	if err := json.Unmarshal(body, &wl); err != nil {
		t.Fatal(err)
	}
	has := map[string]bool{}
	for _, name := range wl.Workloads {
		has[name] = true
	}
	for _, want := range []string{"backprop", "example1", "gemsfdtd"} {
		if !has[want] {
			t.Fatalf("workload list missing %q: %v", want, wl.Workloads)
		}
	}
	_, body = get(t, ts, "/healthz")
	var hz struct {
		Status   string `json:"status"`
		Capacity int    `json:"capacity"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Capacity != 2 {
		t.Fatalf("healthz = %+v", hz)
	}
}

// TestWorkloadParamKeepsPlus: a workload name with '+' resolves on
// both routes whether the client sends the '+' raw or percent-encoded.
func TestWorkloadParamKeepsPlus(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	for _, q := range []string{"workload=b+tree", "workload=b%2Btree"} {
		resp, body := postProfile(t, ts, q)
		var pr ProfileResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pr) != nil || pr.Workload != "b+tree" {
			t.Fatalf("POST /v1/profile?%s = %d: %s", q, resp.StatusCode, body)
		}
		resp, body = postJob(t, ts, q+"&nocache=1", nil)
		var sum jobstore.JobSummary
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &sum) != nil || sum.Name != "b+tree" {
			t.Fatalf("POST /v1/jobs?%s = %d: %s", q, resp.StatusCode, body)
		}
		waitJob(t, ts, sum.ID)
	}
}

// TestRingBoundsDurableHistory: with a data directory, /v1/requests
// serves the persisted history, and RingSize bounds it.
func TestRingBoundsDurableHistory(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir(), RingSize: 2})
	for i := 0; i < 3; i++ {
		if resp, body := postProfile(t, ts, "workload=example1"); resp.StatusCode != http.StatusOK {
			t.Fatalf("profile %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	_, body := get(t, ts, "/v1/requests")
	var out struct {
		Requests []RequestSummary `json:"requests"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Requests) != 2 {
		t.Fatalf("/v1/requests lists %d summaries, want RingSize 2: %s", len(out.Requests), body)
	}
}

// TestRequestsLimitValidated: /v1/requests parses ?limit= like
// /v1/jobs does — a malformed or non-positive limit is a 400 naming
// the parameter, not the whole history — and a valid one caps the
// listing.
func TestRequestsLimitValidated(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	for i := 0; i < 2; i++ {
		if resp, body := postProfile(t, ts, "workload=example1"); resp.StatusCode != http.StatusOK {
			t.Fatalf("profile %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	for _, path := range []string{
		"/v1/requests?limit=bogus", "/v1/requests?limit=-1", "/v1/requests?limit=0",
		"/v1/jobs?limit=bogus", "/v1/jobs?limit=0", "/v1/jobs?offset=-1",
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid ") {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
	}
	_, body := get(t, ts, "/v1/requests?limit=1")
	var out struct {
		Requests []RequestSummary `json:"requests"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Requests) != 1 {
		t.Fatalf("/v1/requests?limit=1 lists %d summaries: %s", len(out.Requests), body)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}
