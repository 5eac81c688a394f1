package jobstore

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"polyprof/internal/faultinject"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
)

// traceEvents extracts the event-name sequence of a job's trace.
func traceEvents(j *Job) []string {
	var out []string
	for _, ev := range j.Trace {
		out = append(out, ev.Event)
	}
	return out
}

func TestLifecycleTracePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{Kind: KindWorkload, Workload: "example1", TraceID: "req-42"}
	if err := st.Submit(j); err != nil {
		t.Fatal(err)
	}
	lease := claim(t, st, j.ID)
	st.Note(j.ID, TraceEvent{Event: TraceStage, Stage: "pass1-structure"})
	st.Note(j.ID, TraceEvent{Event: TraceStage, Stage: "pass2-ddg"})
	if err := st.CompleteLease(j.ID, lease.Token, &Result{Status: "ok", WallNS: 123}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.Get(j.ID)
	if got == nil {
		t.Fatal("job lost across reopen")
	}
	if got.TraceID != "req-42" {
		t.Fatalf("TraceID = %q, want req-42", got.TraceID)
	}
	want := []string{
		TraceIntake, TraceWALAppend, TraceQueueWait, TraceLease,
		TraceStage, TraceStage, TraceComplete,
	}
	evs := traceEvents(got)
	if len(evs) != len(want) {
		t.Fatalf("trace = %v, want %v", evs, want)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("trace[%d] = %s, want %s (full: %v)", i, evs[i], want[i], evs)
		}
	}
	if got.Trace[4].Stage != "pass1-structure" || got.Trace[5].Stage != "pass2-ddg" {
		t.Fatalf("stage events = %+v, %+v", got.Trace[4], got.Trace[5])
	}
	if got.Trace[2].WallNS < 0 {
		t.Fatalf("queue-wait wall = %d, want >= 0", got.Trace[2].WallNS)
	}
	if got.InterruptedStage() != "pass2-ddg" {
		t.Fatalf("InterruptedStage = %q", got.InterruptedStage())
	}
}

func TestCrashRecoveryAppendsTraceMarker(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := st.Submit(j); err != nil {
		t.Fatal(err)
	}
	claim(t, st, j.ID)
	st.Note(j.ID, TraceEvent{Event: TraceStage, Stage: "pass2-ddg"})
	// No Close: simulate the process dying mid-attempt.  The WAL file
	// holds the unsynced stage record via the OS page cache.
	st.wal.close()

	st2, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(recovered) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recovered))
	}
	got := recovered[0]
	if got.State != StateQueued {
		t.Fatalf("recovered state = %s, want queued", got.State)
	}
	ev := got.Trace[len(got.Trace)-1]
	if ev.Event != TraceCrashRecovered {
		t.Fatalf("no crash-recovered marker; trace = %v", traceEvents(got))
	}
	if ev.Stage != "pass2-ddg" {
		t.Fatalf("crash marker stage = %q, want pass2-ddg", ev.Stage)
	}
	if got.InterruptedStage() != "pass2-ddg" {
		t.Fatalf("InterruptedStage = %q, want pass2-ddg", got.InterruptedStage())
	}

	// The marker itself is durable: it rode the compaction that the
	// running->queued flip triggered.
	st2.Close()
	st3, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	j3 := st3.Get(j.ID)
	if j3.Trace[len(j3.Trace)-1].Event != TraceCrashRecovered {
		// A second crash-recovery marker may follow; the stage must
		// still be recoverable.
		if j3.InterruptedStage() != "pass2-ddg" {
			t.Fatalf("marker lost after second reopen: %v", traceEvents(j3))
		}
	}
}

func TestRetryAndQuarantineTraceEvents(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := st.Submit(j); err != nil {
		t.Fatal(err)
	}
	lease := claim(t, st, j.ID)
	if err := st.FailLease(j.ID, lease.Token, &JobError{Message: "transient"}, nil, time.Now().Add(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // wait out the backoff
	lease = claim(t, st, j.ID)
	if err := st.FailLease(j.ID, lease.Token, &JobError{Message: "poison", Terminal: true}, nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	got := st.Get(j.ID)
	evs := traceEvents(got)
	var sawRetry, sawQuarantine bool
	for i, ev := range evs {
		switch ev {
		case TraceRetry:
			sawRetry = true
			if got.Trace[i].Detail != "transient" {
				t.Fatalf("retry detail = %q", got.Trace[i].Detail)
			}
		case TraceQuarantine:
			sawQuarantine = true
			if got.Trace[i].Detail != "poison" {
				t.Fatalf("quarantine detail = %q", got.Trace[i].Detail)
			}
		}
	}
	if !sawRetry || !sawQuarantine {
		t.Fatalf("trace missing retry/quarantine: %v", evs)
	}
}

func TestTraceTruncatesAtCap(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := st.Submit(j); err != nil {
		t.Fatal(err)
	}
	claim(t, st, j.ID)
	for i := 0; i < MaxTraceEvents+50; i++ {
		st.Note(j.ID, TraceEvent{Event: TraceStage, Stage: "looping-stage"})
	}
	got := st.Get(j.ID)
	if len(got.Trace) > MaxTraceEvents+1 {
		t.Fatalf("trace grew to %d events, cap is %d", len(got.Trace), MaxTraceEvents)
	}
	last := got.Trace[len(got.Trace)-1]
	if last.Event != "trace-truncated" {
		t.Fatalf("last trace event = %q, want the truncation marker", last.Event)
	}
}

func TestJobGetStripsNothingButCloneIsDeep(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := st.Submit(j); err != nil {
		t.Fatal(err)
	}
	a := st.Get(j.ID)
	a.Trace[0].Detail = "mutated"
	b := st.Get(j.ID)
	if b.Trace[0].Detail == "mutated" {
		t.Fatal("Get returned a shallow trace: clone aliases store state")
	}
}

// TestReplayParentStageRecords: data directories written before every
// unsynced lifecycle record became a "trace" record hold "stage"
// records for the stage events of running jobs.  Replay takes them as
// "trace" records: a WAL in that format replays to the same trace as
// its "trace" twin, and a job that died mid-attempt still names its
// interrupted stage.
func TestReplayParentStageRecords(t *testing.T) {
	lines := []string{
		`{"t":"submit","job":{"id":"job-1","kind":"workload","workload":"example1","state":"queued","attempts":0,"submitted_at":"2026-01-02T03:04:05Z","trace_id":"req-1","trace":[{"at":"2026-01-02T03:04:05Z","event":"intake","detail":"example1"},{"at":"2026-01-02T03:04:05Z","event":"wal-append"}]}}`,
		`{"t":"state","id":"job-1","state":"running","attempts":1,"at":"2026-01-02T03:04:06Z","trace":[{"at":"2026-01-02T03:04:06Z","event":"queue-wait","attempt":1,"wall_ns":1000000000},{"at":"2026-01-02T03:04:06Z","event":"lease","attempt":1,"detail":"worker local token 1"}],"fence":1,"worker":"local"}`,
		`{"t":"stage","id":"job-1","trace":[{"at":"2026-01-02T03:04:07Z","event":"stage","stage":"pass1-structure","attempt":1}]}`,
		`{"t":"stage","id":"job-1","trace":[{"at":"2026-01-02T03:04:08Z","event":"stage","stage":"pass2-ddg","attempt":1}]}`,
		`{"t":"trace","id":"job-1","trace":[{"at":"2026-01-02T03:04:09Z","event":"checkpoint","attempt":1,"detail":"committed epoch 1 (10 events, 5 bytes)"}]}`,
		`{"t":"state","id":"job-1","state":"succeeded","at":"2026-01-02T03:04:10Z","result":{"status":"ok","wall_ns":4000000000},"trace":[{"at":"2026-01-02T03:04:10Z","event":"complete","attempt":1,"wall_ns":4000000000}]}`,
		`{"t":"submit","job":{"id":"job-2","kind":"workload","workload":"example2","state":"queued","attempts":0,"submitted_at":"2026-01-02T03:04:11Z","trace":[{"at":"2026-01-02T03:04:11Z","event":"intake","detail":"example2"},{"at":"2026-01-02T03:04:11Z","event":"wal-append"}]}}`,
		`{"t":"state","id":"job-2","state":"running","attempts":1,"at":"2026-01-02T03:04:12Z","trace":[{"at":"2026-01-02T03:04:12Z","event":"queue-wait","attempt":1},{"at":"2026-01-02T03:04:12Z","event":"lease","attempt":1,"detail":"worker local token 2"}],"fence":2,"worker":"local"}`,
		`{"t":"stage","id":"job-2","trace":[{"at":"2026-01-02T03:04:13Z","event":"stage","stage":"pass2-ddg","attempt":1}]}`,
	}
	replay := func(recType string) (*Job, *Job) {
		t.Helper()
		dir := t.TempDir()
		var raw []byte
		for _, l := range lines {
			raw = append(raw, frame([]byte(strings.Replace(l, `{"t":"stage"`, `{"t":"`+recType+`"`, 1)))...)
		}
		writeWAL(t, filepath.Join(dir, "wal.000001.log"), raw)
		st, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return st.Get("job-1"), st.Get("job-2")
	}
	done, crashed := replay("stage")
	want := []string{
		TraceIntake, TraceWALAppend, TraceQueueWait, TraceLease,
		TraceStage, TraceStage, TraceCheckpoint, TraceComplete,
	}
	if got := traceEvents(done); !reflect.DeepEqual(got, want) {
		t.Fatalf("job-1 trace = %v, want %v", got, want)
	}
	if done.State != StateSucceeded || done.Trace[5].Stage != "pass2-ddg" {
		t.Fatalf("job-1 = state %s, trace %+v", done.State, done.Trace)
	}
	if crashed.State != StateQueued || crashed.InterruptedStage() != "pass2-ddg" {
		t.Fatalf("job-2 = state %s, interrupted stage %q", crashed.State, crashed.InterruptedStage())
	}
	if ev := crashed.Trace[len(crashed.Trace)-1]; ev.Event != TraceCrashRecovered || ev.Stage != "pass2-ddg" {
		t.Fatalf("job-2 last trace event = %+v, want crash-recovered in pass2-ddg", ev)
	}

	twinDone, twinCrashed := replay("trace")
	if !reflect.DeepEqual(done.Trace, twinDone.Trace) {
		t.Fatalf("stage records replay to %+v, trace records to %+v", done.Trace, twinDone.Trace)
	}
	// The crash marker carries the reopen's wall clock; compare the rest.
	n := len(crashed.Trace) - 1
	if !reflect.DeepEqual(crashed.Trace[:n], twinCrashed.Trace[:n]) {
		t.Fatalf("stage records replay to %+v, trace records to %+v", crashed.Trace, twinCrashed.Trace)
	}
}

// TestRingMirrorsRecordedSteps: the store mirrors each lifecycle step
// into its flight ring once, as it records it.  A completion whose WAL
// append failed (and was rolled back) leaves no ring event, and replay
// mirrors nothing — the reopened store's ring holds only its crash
// marker.
func TestRingMirrorsRecordedSteps(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	dir := t.TempDir()
	bundles := filepath.Join(dir, FlightDir)
	ring := func(st *Store) []string {
		t.Helper()
		id, err := st.Recorder().Trigger("probe", flight.TriggerInfo{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := flight.ReadBundle(bundles, id)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, ev := range b.Events {
			if ev.Kind == "job" {
				out = append(out, ev.Name)
			}
		}
		return out
	}

	st, _, err := Open(dir, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{Kind: KindWorkload, Workload: "example1", TraceID: "req-7"}
	if err := st.Submit(j); err != nil {
		t.Fatal(err)
	}
	lease := claim(t, st, j.ID)
	st.Note(j.ID, TraceEvent{Event: TraceStage, Stage: "pass2-ddg", Attempt: lease.Attempt})
	if err := faultinject.ArmString("jobstore.wal.append=error:disk:1"); err != nil {
		t.Fatal(err)
	}
	if err := st.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); err == nil {
		t.Fatal("completion with a failing WAL append succeeded")
	}
	want := []string{TraceIntake, TraceWALAppend, TraceQueueWait, TraceLease, TraceStage}
	if got := ring(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring after rolled-back completion = %v, want %v", got, want)
	}
	if got := traceEvents(st.Get(j.ID)); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace after rolled-back completion = %v, want %v", got, want)
	}

	// The process dies mid-attempt: the reopen replays everything above
	// and mirrors only the crash marker it appends.
	st.wal.close()
	st2, _, err := Open(dir, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := ring(st2), []string{TraceCrashRecovered}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ring after reopen = %v, want %v", got, want)
	}
	// Open fires the crash-recovery trigger where it appends the marker.
	infos, err := flight.List(bundles)
	if err != nil {
		t.Fatal(err)
	}
	var crash *flight.Bundle
	for _, info := range infos {
		if info.Reason == "crash-recovery" {
			if crash, err = flight.ReadBundle(bundles, info.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if crash == nil || crash.Job != j.ID || crash.Trace != "req-7" || crash.Stage != "pass2-ddg" {
		t.Fatalf("crash-recovery bundle = %+v among %+v", crash, infos)
	}
}
