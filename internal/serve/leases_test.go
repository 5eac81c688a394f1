package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polyprof/internal/jobapi"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
)

// coordinatorServer builds a serve.Server with no local pool workers:
// jobs only make progress when something claims them over the lease
// API, exactly like a `polyprof serve -workers 0` coordinator.
func coordinatorServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	opts.Workers = -1
	return newTestServer(t, opts)
}

func leaseJSON(t *testing.T, ts *httptest.Server, method, path string, v any) (*http.Response, []byte) {
	t.Helper()
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// compactJSON normalizes a report for comparison: writeJSON re-indents
// raw messages, so byte-for-byte equality only holds after compaction.
func compactJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("report does not compact: %v: %s", err, raw)
	}
	return buf.String()
}

func acquireLease(t *testing.T, ts *httptest.Server, worker string, ttl time.Duration) (*http.Response, *jobapi.Grant) {
	t.Helper()
	resp, body := leaseJSON(t, ts, http.MethodPost, "/v1/leases",
		jobapi.AcquireRequest{Worker: worker, TTLNS: int64(ttl)})
	if resp.StatusCode == http.StatusNoContent {
		return resp, nil
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/leases = %d: %s", resp.StatusCode, body)
	}
	var g jobapi.Grant
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatalf("grant does not parse: %v: %s", err, body)
	}
	return resp, &g
}

// TestLeaseHTTPLifecycle drives the full wire protocol by hand:
// claim, heartbeat, result — and reads the finished job back through
// the normal jobs API.
func TestLeaseHTTPLifecycle(t *testing.T) {
	_, ts := coordinatorServer(t, Options{})

	resp, _ := postJob(t, ts, "workload=example1", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}

	resp, grant := acquireLease(t, ts, "w1", time.Second)
	if grant == nil {
		t.Fatalf("no grant: %d", resp.StatusCode)
	}
	if grant.Lease == nil || grant.Job == nil || grant.Lease.Token == 0 || grant.Lease.Attempt != 1 {
		t.Fatalf("grant = %+v", grant)
	}
	id := grant.Lease.JobID

	// The queue is now empty: a second claim gets 204, not a grant.
	if resp, g := acquireLease(t, ts, "w2", time.Second); g != nil {
		t.Fatalf("second claim got a grant (%d): %+v", resp.StatusCode, g)
	}

	resp, body := leaseJSON(t, ts, http.MethodPut, "/v1/leases/"+id,
		jobapi.HeartbeatRequest{Token: grant.Lease.Token, TTLNS: int64(2 * time.Second)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat = %d: %s", resp.StatusCode, body)
	}
	var renewed jobstore.Lease
	if err := json.Unmarshal(body, &renewed); err != nil {
		t.Fatal(err)
	}
	if !renewed.ExpiresAt.After(grant.Lease.ExpiresAt) {
		t.Fatalf("heartbeat did not extend lease: %v -> %v", grant.Lease.ExpiresAt, renewed.ExpiresAt)
	}

	resp, body = leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result", jobapi.ResultRequest{
		Token:  grant.Lease.Token,
		Result: &jobstore.Result{Status: "ok", Report: json.RawMessage(`{"remote":true}`)},
		TraceEvents: []jobstore.TraceEvent{
			{At: time.Now().UTC(), Event: jobstore.TraceStage, Stage: "vm", Attempt: 1, Detail: "worker w1"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result post = %d: %s", resp.StatusCode, body)
	}
	var rr jobapi.ResultResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.State != jobstore.StateSucceeded {
		t.Fatalf("result response state = %s", rr.State)
	}

	j := waitJob(t, ts, id)
	if j.State != jobstore.StateSucceeded || compactJSON(t, j.Result.Report) != `{"remote":true}` {
		t.Fatalf("job = %+v", j)
	}
	// The durable trace (opt-in via ?trace=1) carries the lease grant
	// and the worker's shipped stage event.
	resp, body = get(t, ts, "/v1/jobs/"+id+"?trace=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d", resp.StatusCode)
	}
	var traced jobstore.Job
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	var foundLease, foundRemoteStage bool
	for _, ev := range traced.Trace {
		if ev.Event == jobstore.TraceLease {
			foundLease = true
		}
		if ev.Event == jobstore.TraceStage && ev.Detail == "worker w1" {
			foundRemoteStage = true
		}
	}
	if !foundLease || !foundRemoteStage {
		t.Fatalf("trace missing lease/remote-stage events: %+v", traced.Trace)
	}

	// ?trace=chrome puts the leased job's queue wait on the job/queue
	// track, like a locally run job's.
	resp, body = get(t, ts, "/v1/jobs/"+id+"?trace=chrome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?trace=chrome = %d: %s", resp.StatusCode, body)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	tracks := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.Tid], _ = ev.Args["name"].(string)
		}
	}
	sawQueue := false
	for _, ev := range doc.TraceEvents {
		sawQueue = sawQueue || ev.Ph == "X" && ev.Name == "queue-wait" && tracks[ev.Tid] == "job/queue"
	}
	if !sawQueue {
		t.Fatalf("leased job's chrome trace has no queue-wait span on job/queue: %s", body)
	}
}

// TestLeaseHTTPZombieFenced: a worker that stops heartbeating loses
// its lease to the reclaimer; every call it makes afterwards is a
// structured 409, and the re-queued job is untouched by them.
func TestLeaseHTTPZombieFenced(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := coordinatorServer(t, Options{Registry: reg, LeaseTTL: jobstore.MinLeaseTTL})

	if resp, _ := postJob(t, ts, "workload=example1", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	_, grant := acquireLease(t, ts, "zombie", 0) // 0 => coordinator default (the tiny TTL)
	if grant == nil {
		t.Fatal("no grant")
	}
	id := grant.Lease.JobID

	// No heartbeats: the pool reclaimer must take the lease back and
	// re-queue the job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j := s.store.Get(id)
		if j != nil && j.State == jobstore.StateQueued && j.Lease == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never reclaimed; job = %+v", j)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Zombie heartbeat: 409.
	resp, body := leaseJSON(t, ts, http.MethodPut, "/v1/leases/"+id,
		jobapi.HeartbeatRequest{Token: grant.Lease.Token, TTLNS: int64(time.Second)})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("zombie heartbeat = %d: %s", resp.StatusCode, body)
	}
	// Zombie result post: 409, job not completed by it.
	resp, body = leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result", jobapi.ResultRequest{
		Token:  grant.Lease.Token,
		Result: &jobstore.Result{Status: "ok", Report: json.RawMessage(`{"zombie":true}`)},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("zombie result = %d: %s", resp.StatusCode, body)
	}
	if j := s.store.Get(id); j.State != jobstore.StateQueued || j.Result != nil {
		t.Fatalf("zombie post mutated job: %+v", j)
	}
	if n := reg.Counter("jobs.leases.reclaimed").Value(); n == 0 {
		t.Fatal("jobs.leases.reclaimed not bumped")
	}

	// A fresh worker claims the re-queued job at attempt 2 and
	// completes it for real.
	_, fresh := acquireLease(t, ts, "w2", time.Second)
	if fresh == nil {
		t.Fatal("re-queued job not claimable")
	}
	if fresh.Lease.Attempt != 2 || fresh.Lease.Token <= grant.Lease.Token {
		t.Fatalf("fresh lease = %+v after zombie token %d", fresh.Lease, grant.Lease.Token)
	}
	resp, body = leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result", jobapi.ResultRequest{
		Token:  fresh.Lease.Token,
		Result: &jobstore.Result{Status: "ok", Report: json.RawMessage(`{"real":true}`)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh result = %d: %s", resp.StatusCode, body)
	}
	if j := s.store.Get(id); j.State != jobstore.StateSucceeded || string(j.Result.Report) != `{"real":true}` {
		t.Fatalf("job after fresh completion = %+v", j)
	}
}

// TestLeaseHTTPFailureRequeues: a worker-reported retryable failure
// re-queues the job with backoff; a terminal one fails it.
func TestLeaseHTTPFailureRequeues(t *testing.T) {
	s, ts := coordinatorServer(t, Options{})
	if resp, _ := postJob(t, ts, "workload=example1", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	_, grant := acquireLease(t, ts, "w1", time.Second)
	if grant == nil {
		t.Fatal("no grant")
	}
	id := grant.Lease.JobID

	resp, body := leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result", jobapi.ResultRequest{
		Token: grant.Lease.Token,
		Error: &jobstore.JobError{Message: "transient blip", Attempt: 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failure post = %d: %s", resp.StatusCode, body)
	}
	var rr jobapi.ResultResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.State != jobstore.StateQueued {
		t.Fatalf("retryable failure state = %s, want queued", rr.State)
	}
	if j := s.store.Get(id); j.State != jobstore.StateQueued || j.Error == nil {
		t.Fatalf("job after retryable failure = %+v", j)
	}

	// Claim again (backoff gates via NextRunAt; poll until claimable).
	var second *jobapi.Grant
	deadline := time.Now().Add(30 * time.Second)
	for second == nil && time.Now().Before(deadline) {
		_, second = acquireLease(t, ts, "w1", time.Second)
		if second == nil {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if second == nil {
		t.Fatal("job never became claimable after backoff")
	}
	resp, body = leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result", jobapi.ResultRequest{
		Token: second.Lease.Token,
		Error: &jobstore.JobError{Message: "bad program", Terminal: true, Attempt: 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("terminal failure post = %d: %s", resp.StatusCode, body)
	}
	if j := s.store.Get(id); j.State != jobstore.StateFailed || !j.Error.Terminal {
		t.Fatalf("job after terminal failure = %+v", j)
	}
}

// TestLeaseHTTPBackoffIgnoresPostedAttempt: a remote failure's backoff
// comes from the store's attempt count, not the attempt number the
// worker posts — a hostile or confused post can neither skip the
// backoff nor park the job for the maximum delay.
func TestLeaseHTTPBackoffIgnoresPostedAttempt(t *testing.T) {
	for _, posted := range []int{0, 1 << 30} {
		s, ts := coordinatorServer(t, Options{})
		if resp, _ := postJob(t, ts, "workload=example1", nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d", resp.StatusCode)
		}
		_, grant := acquireLease(t, ts, "w1", time.Second)
		if grant == nil {
			t.Fatal("no grant")
		}
		id := grant.Lease.JobID
		before := time.Now()
		resp, body := leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result", jobapi.ResultRequest{
			Token: grant.Lease.Token,
			Error: &jobstore.JobError{Message: "transient blip", Attempt: posted},
		})
		after := time.Now()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("posted attempt %d: failure post = %d: %s", posted, resp.StatusCode, body)
		}
		// Store attempt 1 backs off the default base of 250ms, jittered
		// into [125ms, 250ms].
		j := s.store.Get(id)
		lo, hi := before.Add(125*time.Millisecond), after.Add(250*time.Millisecond)
		if j.State != jobstore.StateQueued || j.NextRunAt.Before(lo) || j.NextRunAt.After(hi) {
			t.Fatalf("posted attempt %d: job %s next run %s, want within [%s, %s]",
				posted, j.State, j.NextRunAt.Format(time.StampMicro), lo.Format(time.StampMicro), hi.Format(time.StampMicro))
		}
		if j.Error == nil || j.Error.Attempt != 1 {
			t.Fatalf("posted attempt %d: persisted error = %+v, want attempt 1", posted, j.Error)
		}
	}
}

// TestLeaseHTTPQuarantineWritesBundles: a remote worker that fails
// retryably until the attempt budget runs out leaves the same flight
// bundles a local slot does — retry-escalation when the job enters its
// final attempt, job-quarantine when that one fails too.
func TestLeaseHTTPQuarantineWritesBundles(t *testing.T) {
	s, ts, dir := newFlightServer(t, Options{Workers: -1, MaxAttempts: 2})
	if resp, _ := postJob(t, ts, "workload=example1", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var id string
	for attempt := 1; attempt <= 2; attempt++ {
		var grant *jobapi.Grant
		for deadline := time.Now().Add(10 * time.Second); grant == nil && time.Now().Before(deadline); {
			if _, grant = acquireLease(t, ts, "w1", time.Second); grant == nil {
				time.Sleep(20 * time.Millisecond)
			}
		}
		if grant == nil {
			t.Fatalf("attempt %d never became claimable", attempt)
		}
		id = grant.Lease.JobID
		resp, body := leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result", jobapi.ResultRequest{
			Token: grant.Lease.Token,
			Error: &jobstore.JobError{Message: "storage down"},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: failure post = %d: %s", attempt, resp.StatusCode, body)
		}
	}
	if j := s.store.Get(id); j.State != jobstore.StateFailed || !j.Error.Terminal {
		t.Fatalf("job after exhausted remote attempts = %+v", j)
	}
	reasons := map[string]bool{}
	for _, b := range waitBundles(t, dir, 2) {
		if b.Job == id {
			reasons[b.Reason] = true
		}
	}
	if !reasons["retry-escalation"] || !reasons["job-quarantine"] {
		t.Fatalf("bundles for %s = %v, want retry-escalation and job-quarantine", id, reasons)
	}
}

// TestLeaseHTTPValidation pins the edge responses: method matrix,
// unknown jobs, malformed and oversized bodies, exactly-one-of result
// payloads.
func TestLeaseHTTPValidation(t *testing.T) {
	_, ts := coordinatorServer(t, Options{})

	if resp, _ := get(t, ts, "/v1/leases"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/leases = %d, want 405", resp.StatusCode)
	}
	resp, _ := leaseJSON(t, ts, http.MethodPost, "/v1/leases/job-1", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/leases/{id} (no sub) = %d, want 405", resp.StatusCode)
	}
	resp, _ = leaseJSON(t, ts, http.MethodPut, "/v1/leases/job-999",
		jobapi.HeartbeatRequest{Token: 1, TTLNS: int64(time.Second)})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("heartbeat unknown job = %d, want 410", resp.StatusCode)
	}
	resp, _ = leaseJSON(t, ts, http.MethodPost, "/v1/leases/job-999/result",
		jobapi.ResultRequest{Token: 1, Result: &jobstore.Result{Status: "ok"}})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("result unknown job = %d, want 410", resp.StatusCode)
	}

	// Malformed JSON is a structured 400, not a panic or a 500.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/leases", strings.NewReader("{not json"))
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed acquire = %d, want 400", raw.StatusCode)
	}

	// Oversized control body: 413.
	big := bytes.Repeat([]byte("a"), maxLeaseControlBody+1)
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/leases/job-1", bytes.NewReader(big))
	raw, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized heartbeat = %d, want 413", raw.StatusCode)
	}

	// Result payload must carry exactly one of result/error.
	if resp, _ := postJob(t, ts, "workload=example1", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	_, grant := acquireLease(t, ts, "w1", time.Second)
	if grant == nil {
		t.Fatal("no grant")
	}
	id := grant.Lease.JobID
	resp, body := leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result",
		jobapi.ResultRequest{Token: grant.Lease.Token})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("result with neither payload = %d: %s", resp.StatusCode, body)
	}
	resp, body = leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result", jobapi.ResultRequest{
		Token:  grant.Lease.Token,
		Result: &jobstore.Result{Status: "ok"},
		Error:  &jobstore.JobError{Message: "both"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("result with both payloads = %d: %s", resp.StatusCode, body)
	}
	// The rejected posts must not have consumed the lease.
	resp, _ = leaseJSON(t, ts, http.MethodPost, "/v1/leases/"+id+"/result", jobapi.ResultRequest{
		Token:  grant.Lease.Token,
		Result: &jobstore.Result{Status: "ok"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid result after rejected ones = %d", resp.StatusCode)
	}
}

// FuzzLeaseAPI throws hostile bodies at every lease endpoint and
// demands the server keep answering structured sub-500 responses.
func FuzzLeaseAPI(f *testing.F) {
	opts := Options{DataDir: f.TempDir(), Workers: -1, Registry: obs.NewRegistry()}
	s, err := New(opts)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)

	// Keep one real job around so ids sometimes resolve.
	resp, err := http.Post(ts.URL+"/v1/jobs?workload=example1", "", nil)
	if err != nil {
		f.Fatal(err)
	}
	resp.Body.Close()

	f.Add("/v1/leases", "POST", `{"worker":"w","ttl_ns":1000000000}`)
	f.Add("/v1/leases/job-1", "PUT", `{"token":1,"ttl_ns":-5}`)
	f.Add("/v1/leases/job-1/result", "POST", `{"token":0,"result":{"status":"ok"}}`)
	f.Add("/v1/leases/job-1/result", "POST", `{"token":18446744073709551615,"error":{"message":"x"}}`)
	f.Add("/v1/leases/../../etc", "PUT", "")
	f.Add("/v1/leases/job-1", "PUT", `{"token":`)

	f.Fuzz(func(t *testing.T, path, method, body string) {
		if !strings.HasPrefix(path, "/v1/leases") || strings.ContainsAny(path, " \t\r\n#?%") {
			t.Skip()
		}
		switch method {
		case http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete:
		default:
			t.Skip()
		}
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Skip()
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: transport error: %v", method, path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("%s %s with %q = %d, want sub-500", method, path, body, resp.StatusCode)
		}
	})
}
