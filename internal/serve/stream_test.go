package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"polyprof/internal/faultinject"
	"polyprof/internal/jobstore"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	Event string
	Data  []byte
}

// readSSE consumes a text/event-stream body until EOF (the server ends
// the stream after the done event) and returns the events in order.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	var (
		out []sseEvent
		cur sseEvent
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return out
}

// TestJobStreamSSE is the live-progress acceptance check for streaming
// jobs: GET /v1/jobs/{id}?stream=1 on a running streaming job delivers
// monotone per-epoch provisional reports and ends with a done event
// whose report matches the persisted final one.
func TestJobStreamSSE(t *testing.T) {
	iters := 300_000
	epochEvents := 120_000
	if testing.Short() {
		iters, epochEvents = 100_000, 40_000
	}
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	resp, body := postJob(t, ts, fmt.Sprintf("epoch-events=%d", epochEvents), []byte(slowLoopProgram(iters)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sum jobstore.JobSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + sum.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, sresp)
	if len(events) < 2 || events[0].Event != "job" || events[len(events)-1].Event != "done" {
		t.Fatalf("stream shape: %d events, first %q last %q",
			len(events), events[0].Event, events[len(events)-1].Event)
	}

	var lastEpoch uint64
	provisionals := 0
	for _, ev := range events[1 : len(events)-1] {
		if ev.Event != "provisional" {
			t.Fatalf("unexpected mid-stream event %q", ev.Event)
		}
		var p struct {
			Epoch  uint64          `json:"epoch"`
			Events uint64          `json:"events"`
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			t.Fatalf("provisional does not parse: %v: %s", err, ev.Data)
		}
		if p.Epoch <= lastEpoch {
			t.Fatalf("epochs not strictly increasing: %d after %d", p.Epoch, lastEpoch)
		}
		if want := p.Epoch * uint64(epochEvents); p.Events != want {
			t.Fatalf("epoch %d reports %d events, want %d", p.Epoch, p.Events, want)
		}
		if len(p.Report) == 0 {
			t.Fatalf("epoch %d provisional has no report", p.Epoch)
		}
		lastEpoch = p.Epoch
		provisionals++
	}
	if provisionals == 0 {
		t.Fatal("no provisional events observed — streaming job too fast or hub not wired")
	}

	var done struct {
		State  jobstore.State  `json:"state"`
		Status string          `json:"status"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(events[len(events)-1].Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != jobstore.StateSucceeded || done.Status != "ok" {
		t.Fatalf("done = %+v", done)
	}
	final := waitJob(t, ts, sum.ID)
	if compactJSON(t, done.Report) != compactJSON(t, final.Result.Report) {
		t.Fatal("done event report differs from the persisted final report")
	}

	// A terminal job answers a late subscriber with job + done only.
	sresp, err = http.Get(ts.URL + "/v1/jobs/" + sum.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	events = readSSE(t, sresp)
	if len(events) != 2 || events[0].Event != "job" || events[1].Event != "done" {
		t.Fatalf("terminal-job stream = %+v", events)
	}
}

// TestJobStreamFlushesWhileRunning: the stream's job event leaves the
// process at subscribe time, while the job still runs, not pooled in a
// buffer until the done event — the daemon's response wrapper must
// forward Flush.
func TestJobStreamFlushesWhileRunning(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	// Hold the attempt long enough for the subscriber to read.
	if err := faultinject.ArmString("jobexec.attempt=delay:2s:1"); err != nil {
		t.Fatal(err)
	}
	resp, body := postJob(t, ts, "workload=example1", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sum jobstore.JobSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + sum.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	br := bufio.NewReader(sresp.Body)
	line, err := br.ReadString('\n')
	if err != nil || line != "event: job\n" {
		t.Fatalf("first stream line = %q (%v), want the job event", line, err)
	}
	resp, body = get(t, ts, "/v1/jobs/"+sum.ID)
	var j jobstore.Job
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &j) != nil {
		t.Fatalf("GET job = %d: %s", resp.StatusCode, body)
	}
	if j.State.Terminal() {
		t.Fatalf("the job event arrived only after the job ended (%s)", j.State)
	}
	rest, err := io.ReadAll(br)
	if err != nil || !strings.Contains(string(rest), "event: done\n") {
		t.Fatalf("stream tail (%v) lacks the done event:\n%s", err, rest)
	}
}

// TestJobStreamedReportMatchesBuffered: the same workload submitted
// buffered and streamed produces byte-identical persisted reports —
// the service-level face of the core equivalence guarantee.
func TestJobStreamedReportMatchesBuffered(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})

	runOne := func(query string) *jobstore.Job {
		resp, body := postJob(t, ts, query, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %q = %d: %s", query, resp.StatusCode, body)
		}
		var sum jobstore.JobSummary
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatal(err)
		}
		j := waitJob(t, ts, sum.ID)
		if j.State != jobstore.StateSucceeded {
			t.Fatalf("job %q = %s: %+v", query, j.State, j.Error)
		}
		return j
	}
	buffered := runOne("workload=backprop")
	streamed := runOne("workload=backprop&epoch-events=2000")
	if buffered.ID == streamed.ID {
		t.Fatal("streamed submission hit the buffered cache entry — epoch grid not in the cache key")
	}
	if string(buffered.Result.Report) != string(streamed.Result.Report) {
		t.Fatal("streamed final report differs from buffered")
	}
	if streamed.EpochEvents != 2000 {
		t.Fatalf("job spec epoch_events = %d", streamed.EpochEvents)
	}
}

// TestJobListPagination: limit/offset over GET /v1/jobs with the
// default cap and the total of the filtered set.
func TestJobListPagination(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	var ids []string
	for i := 0; i < 5; i++ {
		resp, body := postJob(t, ts, "workload=example1&nocache=1", nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, body)
		}
		var sum jobstore.JobSummary
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sum.ID)
	}
	for _, id := range ids {
		waitJob(t, ts, id)
	}

	var list struct {
		Jobs   []jobstore.JobSummary `json:"jobs"`
		Total  int                   `json:"total"`
		Offset int                   `json:"offset"`
		Limit  int                   `json:"limit"`
	}
	resp, body := get(t, ts, "/v1/jobs?limit=2&offset=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 5 || list.Limit != 2 || list.Offset != 1 || len(list.Jobs) != 2 {
		t.Fatalf("page = total %d limit %d offset %d len %d", list.Total, list.Limit, list.Offset, len(list.Jobs))
	}
	// Newest first: offset 1 of 5 submissions is the 4th.
	if list.Jobs[0].ID != ids[3] || list.Jobs[1].ID != ids[2] {
		t.Fatalf("page ids = %s, %s; want %s, %s", list.Jobs[0].ID, list.Jobs[1].ID, ids[3], ids[2])
	}

	// Unspecified limit applies the default cap (not unbounded).
	resp, body = get(t, ts, "/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Limit != DefaultJobListLimit || list.Total != 5 || len(list.Jobs) != 5 {
		t.Fatalf("default page = limit %d total %d len %d", list.Limit, list.Total, len(list.Jobs))
	}

	// Malformed paging parameters are structured 400s.
	if resp, _ := get(t, ts, "/v1/jobs?limit=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=bogus = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/jobs?offset=-3"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("offset=-3 = %d, want 400", resp.StatusCode)
	}
}
