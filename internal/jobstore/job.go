// Package jobstore is the durable asynchronous job subsystem behind
// polyprof serve's /v1/jobs API: a crash-safe store of profiling jobs
// persisted through an append-only write-ahead log with snapshot
// compaction, plus a bounded worker pool that executes jobs with
// per-job retry, exponential backoff and poison quarantine.
//
// Durability contract (see DESIGN.md for the full note):
//
//   - A job is *acknowledged* once Store.Submit returns nil: its submit
//     record has been appended to the WAL and fsynced.  Acknowledged
//     jobs survive kill -9 at any point — replay restores them.
//   - Jobs that were running at crash time are re-enqueued on restart
//     (the profiling pipeline is deterministic, so a re-run produces
//     the identical report).
//   - A job whose completion record reached the WAL is never re-run:
//     replay keeps the terminal state, so no job double-completes.
//   - Torn tail records and CRC-corrupt entries are skipped with a
//     logged warning during replay; everything before them is kept.
//
// What the WAL does NOT guarantee: records appended after the last
// successful fsync may be lost on power failure (the affected jobs were
// not yet acknowledged), and a corrupt snapshot loses the state it
// compacted (replay then falls back to whatever WAL generations are
// still on disk).
package jobstore

import (
	"context"
	"errors"
	"fmt"

	"polyprof/internal/budget"
	"polyprof/internal/jobrec"
)

// The job records live in the leaf package internal/jobrec, which the
// attempt runner shares without depending on the store or its flight
// recorder; the store keeps their names.
type (
	State      = jobrec.State
	Job        = jobrec.Job
	JobSummary = jobrec.JobSummary
	TraceEvent = jobrec.TraceEvent
	Progress   = jobrec.Progress
	LeaseView  = jobrec.LeaseView
	Result     = jobrec.Result
	JobError   = jobrec.JobError
)

const (
	StateQueued    = jobrec.StateQueued
	StateRunning   = jobrec.StateRunning
	StateSucceeded = jobrec.StateSucceeded
	StateFailed    = jobrec.StateFailed

	KindWorkload = jobrec.KindWorkload
	KindProgram  = jobrec.KindProgram

	TraceIntake         = jobrec.TraceIntake
	TraceWALAppend      = jobrec.TraceWALAppend
	TraceQueueWait      = jobrec.TraceQueueWait
	TraceLease          = jobrec.TraceLease
	TraceStage          = jobrec.TraceStage
	TraceRetry          = jobrec.TraceRetry
	TraceQuarantine     = jobrec.TraceQuarantine
	TraceComplete       = jobrec.TraceComplete
	TraceCrashRecovered = jobrec.TraceCrashRecovered
	TraceReclaim        = jobrec.TraceReclaim
	TraceCacheHit       = jobrec.TraceCacheHit
	TraceCheckpoint     = jobrec.TraceCheckpoint
	TraceResume         = jobrec.TraceResume
	TraceResumeRejected = jobrec.TraceResumeRejected

	MaxTraceEvents = jobrec.MaxTraceEvents
)

// ErrRetryable marks an error chain as transient (see jobrec).
var ErrRetryable = jobrec.ErrRetryable

// States lists every lifecycle state (for /v1/jobs?state= validation).
func States() []State {
	return []State{StateQueued, StateRunning, StateSucceeded, StateFailed}
}

// Retryable classifies an execution error: wall-clock timeouts and
// cancellations are worth retrying (the machine was busy, the daemon
// was shutting down), as is anything explicitly marked ErrRetryable
// (panic recoveries, injected faults at persistence boundaries).
// Everything else — validation errors, deterministic step/event budget
// exhaustion — is terminal: the same program will fail the same way on
// every attempt.
func Retryable(err error) bool {
	if errors.Is(err, ErrRetryable) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	if be, ok := budget.AsError(err); ok {
		return be.Timeout() || be.Canceled()
	}
	return false
}

// NewJobError builds the persisted form of an execution error, with
// the attempt runner's verdict when the error carries one (nil for a
// nil error).
func NewJobError(err error, attempt int, spanID uint64) *JobError {
	if err == nil {
		return nil
	}
	je := &JobError{
		Message:  err.Error(),
		Terminal: !Retryable(err),
		SpanID:   spanID,
		Attempt:  attempt,
	}
	if be, ok := budget.AsError(err); ok {
		je.Budget = be
	}
	var f *jobrec.Failure
	if errors.As(err, &f) {
		je.Verdict = f.Verdict
	}
	return je
}

// ParseState validates a state filter string.
func ParseState(s string) (State, error) {
	for _, st := range States() {
		if string(st) == s {
			return st, nil
		}
	}
	return "", fmt.Errorf("jobstore: unknown state %q (want queued|running|succeeded|failed)", s)
}
