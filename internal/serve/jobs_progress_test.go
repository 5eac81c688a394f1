package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"polyprof/internal/jobstore"
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
// the attempt's stage spans as the daemon's flight ring holds them, in
// start order — stage names exist once, as span names.  A stage span is
// one that no other non-root span of the attempt encloses.  Daemon jobs
// run the sequential engine; the parallel engine's span tree is checked
// in internal/parddg.
func TestJobStagesAreSpans(t *testing.T) {
	// shards=0: the sequential engine, the only one a daemon job runs.
	t.Run("shards=0", func(t *testing.T) {
		s, ts, _ := newFlightServer(t, Options{})
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

		type span struct {
			name       string
			start, end time.Time
		}
		var spans []span
		sawRoot := false
		for _, ev := range freeze(t, s, "probe").Events {
			switch {
			case ev.Kind != "span" || ev.Trace != j.TraceID:
			case ev.Name == "job:example1#1":
				sawRoot = true
			default:
				spans = append(spans, span{ev.Name, ev.At.Add(-time.Duration(ev.WallNS)), ev.At})
			}
		}
		if !sawRoot {
			t.Fatalf("no root span for trace %s among %d spans", j.TraceID, len(spans))
		}
		slices.SortFunc(spans, func(a, b span) int { // enclosing spans first
			return cmp.Or(a.start.Compare(b.start), b.end.Compare(a.end))
		})
		var stageSpans []string
		var end time.Time
		for _, sp := range spans {
			if !sp.start.Before(end) { // not inside the previous stage span
				stageSpans = append(stageSpans, sp.name)
				end = sp.end
			}
		}
		if !slices.Equal(stages, stageSpans) {
			t.Fatalf("stage records %v, ring stage spans %v", stages, stageSpans)
		}
		want := []string{"pass1-structure", "pass2-ddg", "fold-finish", "sched-build", "feedback-analyze", "transform"}
		if !slices.Equal(stages, want) {
			t.Fatalf("stage records %v, want %v", stages, want)
		}
	})
}
