package serve

import (
	"context"
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
	"polyprof/internal/jobapi"
	"polyprof/internal/jobexec"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
)

// newFlightServer builds a test daemon with the durable subsystem (and
// therefore its own flight recorder), returning the bundle dir.
func newFlightServer(t *testing.T, opts Options) (*Server, *httptest.Server, string) {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	s, ts := newTestServer(t, opts)
	return s, ts, filepath.Join(opts.DataDir, jobstore.FlightDir)
}

// freeze triggers the daemon's recorder and returns the bundle, whose
// events are the ring at that instant; the trigger itself then enters
// the ring as one event.
func freeze(t *testing.T, s *Server, reason string) *flight.Bundle {
	t.Helper()
	rec := s.store.Recorder()
	id, err := rec.Trigger(reason, flight.TriggerInfo{})
	if err != nil || id == "" {
		t.Fatalf("trigger %s = %q, %v", reason, id, err)
	}
	b, err := flight.ReadBundle(rec.Dir(), id)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// submitID submits a job, under the given X-Request-ID when trace is
// set, and returns its ID.
func submitID(t *testing.T, ts *httptest.Server, query, trace string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace != "" {
		req.Header.Set("X-Request-ID", trace)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum jobstore.JobSummary
	if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&sum) != nil {
		t.Fatalf("submit %s = %d", query, resp.StatusCode)
	}
	return sum.ID
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
	_, ts := newTestServer(t, Options{})
	if resp, _ := get(t, ts, "/v1/flight"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/flight = %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/flight/fr-x"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/flight/{id} = %d, want 503", resp.StatusCode)
	}
}

// TestRequestsLogNoRingEvents: the middleware writes nothing to the
// flight ring, so liveness probes cannot crowd it, and a synchronous
// profile leaves exactly one status event — its outcome's.
func TestRequestsLogNoRingEvents(t *testing.T) {
	s, ts, _ := newFlightServer(t, Options{})
	ring := func(reason string) []flight.Event { return freeze(t, s, reason).Events }
	before := ring("probe-before")
	for i := 0; i < 100; i++ {
		if resp, body := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %d: %s", resp.StatusCode, body)
		}
	}
	if after := ring("probe-after"); len(after) != len(before)+1 {
		t.Fatalf("100 /healthz polls: ring grew %d -> %d events, want only the trigger's", len(before), len(after))
	}

	resp, body := postProfile(t, ts, "workload=example1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile = %d: %s", resp.StatusCode, body)
	}
	trace := resp.Header.Get("X-Request-ID")
	var status []flight.Event
	for _, ev := range ring("probe-profile") {
		if ev.Trace == trace && strings.HasPrefix(ev.Detail, "status=") {
			status = append(status, ev)
		}
	}
	if len(status) != 1 || status[0].Detail != "status=ok" {
		t.Fatalf("status events for %s = %+v, want one status=ok", trace, status)
	}
}

// TestServe5xxWritesBundleAndFlightAPI: an attempt panic (500) freezes
// the recorder; the bundle is listable and readable over the API.
func TestServe5xxWritesBundleAndFlightAPI(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts, dir := newFlightServer(t, Options{})
	if err := faultinject.ArmString("jobexec.attempt=panic:boom:1"); err != nil {
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
// path.
func TestChaosFaultPointsOneBundleEach(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	cases := []struct {
		point  string
		reason string
		viaJob bool
	}{
		{point: "vm.step", reason: "stage-panic"},
		{point: "ddg.shadow.insert", reason: "stage-panic"},
		{point: "fold.finish", reason: "stage-panic"},
		{point: "sched.build", reason: "stage-panic"},
		{point: "jobexec.attempt", reason: "serve-5xx"},
		{point: "jobstore.wal.append", reason: "serve-5xx", viaJob: true},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			_, ts, dir := newFlightServer(t, Options{})
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

// TestJobLifecycleRingFromStore: the flight ring sees jobs only through
// the job store's record.  A job run by a local slot and one run by a
// remote jobapi.Worker each leave every step of their durable
// lifecycle trace in the ring exactly once, as job/<event> — including
// the remote attempt's shipped stage events and the terminal complete
// — and no serving-layer copy (job/submit, job/attempt, lease/grant,
// stage/<name>) remains.
func TestJobLifecycleRingFromStore(t *testing.T) {
	s, ts, _ := newFlightServer(t, Options{Workers: -1})
	submit := func(query string) string { return submitID(t, ts, query, "") }

	// The local job runs exactly as a pool slot runs it: claimed under a
	// lease that never expires, executed by runJob, completed under its
	// token.  A duplicate submission then notes a cache hit on it.
	local := submit("workload=example1")
	lease, job, err := s.pool.Acquire(jobstore.LocalWorker, 0)
	if err != nil || job.ID != local {
		t.Fatalf("local claim = %v, %v", job, err)
	}
	res, err := s.runJob(context.Background(), job, lease)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.pool.Complete(job.ID, lease.Token, res, nil); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJob(t, ts, "workload=example1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit = %d: %s", resp.StatusCode, body)
	}

	remote := submit("workload=example2")
	ctx, cancel := context.WithCancel(context.Background())
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: ts.URL, Name: "ring", Slots: 1, Poll: 25 * time.Millisecond,
		Exec: jobexec.Options{Timeout: 30 * time.Second},
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	waitJob(t, ts, remote)
	cancel()
	<-done

	ring := map[string][]flight.Event{} // job id -> its lifecycle events
	for _, ev := range freeze(t, s, "probe").Events {
		switch {
		case ev.Kind == "lease" || ev.Kind == "stage",
			ev.Kind == "job" && (ev.Name == "submit" || ev.Name == "attempt"):
			t.Errorf("serving-layer ring event %s/%s: %s", ev.Kind, ev.Name, ev.Detail)
		case ev.Kind == "job":
			// The detail leads with the job ID ("job-1 attempt 1 ...",
			// "job-1: example1"); outcome events ("status=ok") match no job.
			jobID, _, _ := strings.Cut(ev.Detail, " ")
			jobID = strings.TrimSuffix(jobID, ":")
			ring[jobID] = append(ring[jobID], ev)
		}
	}
	for _, id := range []string{local, remote} {
		resp, body := get(t, ts, "/v1/jobs/"+id+"?trace=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s trace = %d: %s", id, resp.StatusCode, body)
		}
		var j jobstore.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if j.State != jobstore.StateSucceeded {
			t.Fatalf("%s ended %s: %+v", id, j.State, j.Error)
		}
		got := ring[id]
		if len(got) != len(j.Trace) {
			t.Fatalf("%s: ring holds %d lifecycle events, trace has %d:\nring  %+v\ntrace %+v", id, len(got), len(j.Trace), got, j.Trace)
		}
		stages := 0
		for i, ev := range j.Trace {
			if got[i].Name != ev.Event || !got[i].At.Equal(ev.At) || got[i].Trace != j.TraceID || got[i].WallNS != ev.WallNS {
				t.Fatalf("%s: ring event %d = %+v, want trace event %+v", id, i, got[i], ev)
			}
			if ev.Event == jobstore.TraceStage {
				stages++
				if !strings.Contains(got[i].Detail, "stage "+ev.Stage) {
					t.Fatalf("%s: ring stage event %+v does not name stage %s", id, got[i], ev.Stage)
				}
			}
		}
		if stages == 0 {
			t.Fatalf("%s: no stage events in trace %+v", id, j.Trace)
		}
		if last := j.Trace[len(j.Trace)-1].Event; id == remote && last != jobstore.TraceComplete {
			t.Fatalf("remote trace ends with %s, want complete", last)
		}
		if id == local && j.Trace[len(j.Trace)-1].Event != jobstore.TraceCacheHit {
			t.Fatalf("local trace ends with %s, want cache-hit", j.Trace[len(j.Trace)-1].Event)
		}
	}
}

// TestTwoDaemonsKeepDisjointRings: two daemons in one process each
// record through their own store's recorder, so a bundle of either
// holds only that daemon's job lifecycle, span and outcome events.
func TestTwoDaemonsKeepDisjointRings(t *testing.T) {
	daemons := map[string]*Server{}
	for _, trace := range []string{"daemon-a", "daemon-b"} {
		s, ts, _ := newFlightServer(t, Options{})
		if j := waitJob(t, ts, submitID(t, ts, "workload=example1", trace)); j.State != jobstore.StateSucceeded {
			t.Fatalf("%s job ended %s: %+v", trace, j.State, j.Error)
		}
		daemons[trace] = s
	}
	for trace, s := range daemons {
		kinds := map[string]int{}
		for _, ev := range freeze(t, s, "probe").Events {
			if ev.Kind == "trigger" {
				continue
			}
			if ev.Trace != trace {
				t.Errorf("%s bundle holds %s/%s of trace %q: %s", trace, ev.Kind, ev.Name, ev.Trace, ev.Detail)
			}
			kinds[ev.Kind]++
		}
		if kinds["job"] == 0 || kinds["span"] == 0 {
			t.Fatalf("%s bundle event kinds = %v, want its job and span events", trace, kinds)
		}
	}
}

// TestResumeRejectedReachesTraceAndRing: a streaming attempt whose
// committed checkpoint does not decode starts from event zero and
// leaves a resume-rejected event in the job's lifecycle trace and the
// coordinator's ring — run by a local slot or by a remote
// jobapi.Worker alike.
func TestResumeRejectedReachesTraceAndRing(t *testing.T) {
	s, ts, _ := newFlightServer(t, Options{Workers: -1})
	// plant claims the job and commits an undecodable checkpoint for it
	// under the lease.
	plant := func(id string) (*jobstore.Lease, *jobstore.Job) {
		t.Helper()
		lease, job, err := s.pool.Acquire("planter", 0)
		if err != nil || job.ID != id {
			t.Fatalf("claim %s = %v, %v", id, job, err)
		}
		if err := s.store.SaveLeasedCheckpoint(id, lease.Token, &jobstore.JobCheckpoint{
			Epoch: 1, Events: 20, Attempt: lease.Attempt, Data: []byte("not a checkpoint"),
		}); err != nil {
			t.Fatal(err)
		}
		return lease, job
	}

	local := submitID(t, ts, "workload=example1&epoch-events=20", "")
	lease, job := plant(local)
	res, err := s.runJob(context.Background(), job, lease)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.pool.Complete(local, lease.Token, res, nil); err != nil {
		t.Fatal(err)
	}

	// A retryable failure re-queues the remote job with its checkpoint,
	// so the worker's grant carries the undecodable one.
	remote := submitID(t, ts, "workload=example2&epoch-events=20", "")
	lease, _ = plant(remote)
	if _, err := s.pool.Fail(remote, lease.Token, &jobstore.JobError{Message: "planted", Attempt: lease.Attempt}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: ts.URL, Name: "resumer", Slots: 1, Poll: 25 * time.Millisecond,
		Exec: jobexec.Options{Timeout: 30 * time.Second},
	})
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	waitJob(t, ts, remote)
	cancel()
	<-done

	ring := freeze(t, s, "probe").Events
	for _, id := range []string{local, remote} {
		resp, body := get(t, ts, "/v1/jobs/"+id+"?trace=1")
		var j jobstore.Job
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &j) != nil {
			t.Fatalf("GET %s trace = %d: %s", id, resp.StatusCode, body)
		}
		if j.State != jobstore.StateSucceeded {
			t.Fatalf("%s ended %s: %+v", id, j.State, j.Error)
		}
		var traced, ringed bool
		for _, ev := range j.Trace {
			traced = traced || ev.Event == jobstore.TraceResumeRejected
		}
		for _, ev := range ring {
			ringed = ringed || ev.Kind == "job" && ev.Name == jobstore.TraceResumeRejected && strings.HasPrefix(ev.Detail, id+" ")
		}
		if !traced || !ringed {
			t.Fatalf("%s: resume-rejected in trace %v, in ring %v; trace %+v", id, traced, ringed, j.Trace)
		}
	}
}
