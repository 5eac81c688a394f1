package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
)

// slowLoopProgram returns an isa-JSON program spinning a counted loop
// long enough for GET /v1/jobs/{id} polls to catch it mid-flight.
func slowLoopProgram(iters int) string {
	return fmt.Sprintf(`{
	 "name": "slow-loop", "main": 0, "mem_words": 64,
	 "globals": {"a": {"base": 0, "size": 64}},
	 "funcs": [{"name": "main", "entry": 0, "blocks": [0, 1, 2], "num_args": 0, "num_regs": 8}],
	 "blocks": [
	  {"fn": 0, "name": "entry", "code": [
	    {"op": "consti", "dst": 0, "imm": 0},
	    {"op": "consti", "dst": 1, "imm": 1},
	    {"op": "consti", "dst": 2, "imm": %d},
	    {"op": "consti", "dst": 4, "imm": 0},
	    {"op": "jmp", "then": 1}]},
	  {"fn": 0, "name": "loop", "code": [
	    {"op": "store", "a": 4, "b": 0},
	    {"op": "add", "dst": 0, "a": 0, "b": 1},
	    {"op": "cmplt", "dst": 3, "a": 0, "b": 2},
	    {"op": "br", "a": 3, "then": 1, "else": 2}]},
	  {"fn": 0, "name": "exit", "code": [{"op": "halt"}]}
	 ]
	}`, iters)
}

// TestJobProgressLive is the live-progress acceptance check: while a
// slow job runs, GET /v1/jobs/{id} reports a progress object whose
// stage is named and whose event counter moves forward, and the field
// disappears once the job is terminal.  Every pass2-ddg sample carries
// the pass's exact expected total: the job's final op count.
func TestJobProgressLive(t *testing.T) {
	iters := 1_000_000
	if testing.Short() {
		iters = 200_000
	}
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	resp, body := postJob(t, ts, "", []byte(slowLoopProgram(iters)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sum jobstore.JobSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}

	// Poll while running: progress must appear, with monotone events
	// within each stage.
	var (
		sawProgress bool
		sawEvents   bool
		lastStage   string
		lastEvents  uint64
		pass2Totals []uint64
	)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, ts, "/v1/jobs/"+sum.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job = %d: %s", resp.StatusCode, body)
		}
		var j jobstore.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatalf("job does not parse: %v: %s", err, body)
		}
		if j.State.Terminal() {
			if j.State != jobstore.StateSucceeded {
				t.Fatalf("job ended %s: %+v", j.State, j.Error)
			}
			if j.Progress != nil {
				t.Fatalf("terminal job still reports progress %+v", j.Progress)
			}
			if !sawProgress {
				t.Fatal("never observed progress on a running job — workload too fast or progress not wired")
			}
			if !sawEvents {
				t.Fatal("progress stages observed but the event counter never moved")
			}
			for _, total := range pass2Totals {
				if total != j.Result.Ops {
					t.Fatalf("pass2-ddg progress total %d, want the job's %d ops", total, j.Result.Ops)
				}
			}
			return
		}
		if j.State == jobstore.StateRunning && j.Progress != nil {
			sawProgress = true
			p := j.Progress
			if p.Stage == "" {
				t.Fatalf("running progress without a stage: %+v", p)
			}
			if p.Stage == "pass2-ddg" {
				pass2Totals = append(pass2Totals, p.Total)
			}
			if p.Stage == lastStage && p.Events < lastEvents {
				t.Fatalf("events went backwards within stage %s: %d -> %d", p.Stage, lastEvents, p.Events)
			}
			if p.Events > 0 {
				sawEvents = true
				if p.Total > 0 && p.Events > p.Total {
					t.Fatalf("events %d above stage total %d", p.Events, p.Total)
				}
			}
			lastStage, lastEvents = p.Stage, p.Events
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never finished")
}

// TestJobStagesAreSpans: a job's persisted stage records are exactly
// the attempt root's child spans, in start order — stage names exist
// once, as span names. Daemon jobs run the sequential engine; the
// parallel engine's span tree is checked in internal/parddg.
func TestJobStagesAreSpans(t *testing.T) {
	for _, tc := range []struct {
		shards int
		want   []string
	}{
		{0, []string{"pass1-structure", "pass2-ddg", "fold-finish", "sched-build", "feedback-analyze", "transform"}},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
			// The daemon's flight recorder owns the process-wide span
			// hook; take it over for this test and leave both off after.
			var (
				mu   sync.Mutex
				recs []obs.SpanRecord
			)
			obs.SetSpanHook(func(rec obs.SpanRecord) {
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			})
			t.Cleanup(flight.Default.Disable)

			resp, body := postJob(t, ts, "workload=example1&optimize=1", nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", resp.StatusCode, body)
			}
			var sum jobstore.JobSummary
			if err := json.Unmarshal(body, &sum); err != nil {
				t.Fatal(err)
			}
			if j := waitJob(t, ts, sum.ID); j.State != jobstore.StateSucceeded {
				t.Fatalf("job ended %s: %+v", j.State, j.Error)
			}
			resp, body = get(t, ts, "/v1/jobs/"+sum.ID+"?trace=1")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET job trace = %d: %s", resp.StatusCode, body)
			}
			var j jobstore.Job
			if err := json.Unmarshal(body, &j); err != nil {
				t.Fatal(err)
			}
			var stages []string
			for _, ev := range j.Trace {
				if ev.Event == jobstore.TraceStage {
					stages = append(stages, ev.Stage)
				}
			}

			mu.Lock()
			defer mu.Unlock()
			var root *obs.SpanRecord
			for i := range recs {
				if recs[i].ID == j.Result.SpanID && recs[i].Name == "job:example1#1" {
					root = &recs[i]
				}
			}
			if root == nil {
				t.Fatalf("no root span %d among %d records", j.Result.SpanID, len(recs))
			}
			var children []obs.SpanRecord
			for _, rec := range recs {
				if rec.Parent == root.ID && !rec.Start.Before(root.Start) {
					children = append(children, rec)
				}
			}
			slices.SortFunc(children, func(a, b obs.SpanRecord) int { return cmp.Compare(a.ID, b.ID) })
			var spans []string
			for _, rec := range children {
				spans = append(spans, rec.Name)
			}
			if !slices.Equal(stages, spans) {
				t.Fatalf("stage records %v, root child spans %v", stages, spans)
			}
			if !slices.Equal(stages, tc.want) {
				t.Fatalf("stage records %v, want %v", stages, tc.want)
			}
		})
	}
}
