package jobstore

import (
	"testing"
	"time"
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
	st.NoteStage(j.ID, "pass1-structure")
	st.NoteStage(j.ID, "pass2-ddg")
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
	st.NoteStage(j.ID, "pass2-ddg")
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
	ev, ok := got.CrashRecovered()
	if !ok {
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
	if _, ok := j3.CrashRecovered(); !ok {
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
		st.NoteStage(j.ID, "looping-stage")
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
