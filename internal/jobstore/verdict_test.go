package jobstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"polyprof/internal/budget"
	"polyprof/internal/jobrec"
)

// TestReplayJobErrorWithoutVerdict: a WAL whose failure records were
// written before failures carried the attempt runner's verdict replays
// unchanged — message, terminal flag, budget and span id intact, the
// verdict empty — next to a failure that carries one, which survives
// replay whole.
func TestReplayJobErrorWithoutVerdict(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)
	old := &Job{Kind: KindWorkload, Workload: "example1"}
	cur := &Job{Kind: KindWorkload, Workload: "example2"}
	for _, j := range []*Job{cur, old} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	// The failure record as it was written before the verdict existed.
	legacy := fmt.Sprintf(`{"t":"state","id":%q,"state":"failed","attempts":1,"at":"2026-01-02T03:04:05Z",`+
		`"error":{"message":"budget: vm-steps exhausted in vm","terminal":true,`+
		`"budget":{"resource":"vm-steps","stage":"vm","limit":10,"used":11},"span_id":7,"attempt":1}}`, old.ID)
	s.mu.Lock()
	err := s.wal.append([]byte(legacy))
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	verdict := jobrec.Verdict{Status: "budget", Reason: "budget-exhausted", Detail: "budget: vm-steps exhausted in vm", WallNS: 42}
	steps := &budget.Error{Resource: budget.ResourceSteps, Stage: "vm", Limit: 10, Used: 11}
	jerr := NewJobError(&jobrec.Failure{Err: fmt.Errorf("pass 2: %w", steps), Verdict: verdict}, 1, 9)
	if jerr.Verdict != verdict || !jerr.Terminal || jerr.Budget == nil {
		t.Fatalf("NewJobError = %+v, want the verdict, terminal, with its budget", jerr)
	}
	if err := s.FailLease(cur.ID, claim(t, s, cur.ID).Token, jerr, nil, time.Time{}); err != nil {
		t.Fatal(err)
	}

	// Crash: no Close.
	s2, _ := testOpen(t, dir)
	defer s2.Close()
	got := s2.Get(old.ID)
	if got.State != StateFailed || got.Error == nil {
		t.Fatalf("legacy failure replayed as %+v", got)
	}
	if e := got.Error; e.Message != "budget: vm-steps exhausted in vm" || !e.Terminal || e.SpanID != 7 ||
		e.Budget == nil || e.Budget.Resource != budget.ResourceSteps || e.Verdict != (jobrec.Verdict{}) {
		t.Fatalf("legacy failure = %+v, want its fields and an empty verdict", e)
	}
	if got := s2.Get(cur.ID); got.State != StateFailed || got.Error == nil || got.Error.Verdict != verdict {
		t.Fatalf("failure with verdict replayed as %+v", got.Error)
	}
}

// TestFailureKeepsRetryClassification: wrapping an attempt's error with
// its verdict changes neither Retryable's answer nor NewJobError's
// message and budget; a nil error has no JobError.
func TestFailureKeepsRetryClassification(t *testing.T) {
	if je := NewJobError(nil, 1, 2); je != nil {
		t.Fatalf("NewJobError(nil) = %+v", je)
	}
	wall := &budget.Error{Resource: budget.ResourceWall, Stage: "vm"}
	for _, err := range []error{
		errors.New("program rejected"),
		fmt.Errorf("attempt panicked: boom: %w", ErrRetryable),
		fmt.Errorf("pass 2: %w", wall),
		&budget.Error{Resource: budget.ResourceSteps},
	} {
		f := &jobrec.Failure{Err: err, Verdict: jobrec.Verdict{Status: "x"}}
		if Retryable(f) != Retryable(err) {
			t.Errorf("Retryable(%v) changed when wrapped with a verdict", err)
		}
		plain, judged := NewJobError(err, 1, 2), NewJobError(f, 1, 2)
		judged.Verdict = plain.Verdict
		if fmt.Sprint(*plain) != fmt.Sprint(*judged) {
			t.Errorf("NewJobError(%v) = %+v wrapped, %+v plain", err, *judged, *plain)
		}
	}
}
