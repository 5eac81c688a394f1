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
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"polyprof/internal/budget"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: submitted (or scheduled for retry) and waiting for a
	// worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing an attempt.
	StateRunning State = "running"
	// StateSucceeded: terminal; Result holds the report.
	StateSucceeded State = "succeeded"
	// StateFailed: terminal; the job was quarantined with its last
	// error after a terminal failure or exhausted attempts.
	StateFailed State = "failed"
)

// States lists every lifecycle state (for /v1/jobs?state= validation).
func States() []State {
	return []State{StateQueued, StateRunning, StateSucceeded, StateFailed}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateSucceeded || s == StateFailed }

// Job kinds: a bundled workload by name, or a user-submitted program
// body in the internal/isa JSON encoding.
const (
	KindWorkload = "workload"
	KindProgram  = "program"
)

// Job is one profiling job.  Exactly one of Workload / Program is set:
// either a bundled workload name or a user-submitted program body in
// the internal/isa JSON encoding.  Program is []byte (base64 on the
// wire and in the WAL), not json.RawMessage: intake is deliberately
// lax, so the bytes must persist opaquely even when they are not valid
// JSON — the decode error then surfaces as the job's terminal failure.
type Job struct {
	ID string `json:"id"`
	// Kind is "workload" or "program".
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	Program  []byte `json:"program,omitempty"`

	State State `json:"state"`
	// Attempts counts started executions (including one interrupted by
	// a crash); the pool quarantines the job once it reaches the
	// configured maximum.
	Attempts int `json:"attempts"`

	// CacheKey is the job's content address: the canonical SHA-256 of
	// (program, flags, budgets) computed at intake.  Succeeded jobs are
	// indexed by it so a duplicate submission returns the cached report
	// in O(1).  Empty when the submission was not canonicalizable (a
	// hostile body) or caching is disabled.
	CacheKey string `json:"cache_key,omitempty"`

	// EpochEvents, when positive, runs the job's attempts in streaming
	// mode: pass 2 pauses every EpochEvents dynamic instructions,
	// publishes a provisional report, and commits a resume checkpoint
	// through the WAL.  Part of the job spec, so every attempt — local
	// or remotely leased — uses the same epoch grid (epoch boundaries
	// are exact op-counter multiples, the invariant behind resume
	// exactness).
	EpochEvents uint64 `json:"epoch_events,omitempty"`

	// Optimize runs the schedule-application engine after analysis:
	// the attempt applies the suggested schedules, re-measures them
	// under the VM cycle/cache model, and the report carries an
	// "optimization" section.  Part of the job spec (and the cache key):
	// an optimized and an unoptimized run of the same program are
	// different jobs.
	Optimize bool `json:"optimize,omitempty"`

	// Lease is the volatile view of the job's outstanding lease
	// (worker, attempt, expiry — never the fencing token); a pool slot's
	// lease names worker "local" and never expires.  Like Progress it
	// is filled into Get clones and never persisted.
	Lease *LeaseView `json:"lease,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	// NextRunAt delays a retry (exponential backoff with jitter).
	NextRunAt time.Time `json:"next_run_at,omitempty"`

	// Error is the last failure (terminal when State == failed).
	Error *JobError `json:"error,omitempty"`
	// Result is the profiling outcome once State == succeeded.
	Result *Result `json:"result,omitempty"`

	// Progress is the live position of a running attempt (current stage,
	// events processed, expected total).  It is volatile: filled into
	// Get clones from the attempt's span registry while the job runs,
	// never stored on the canonical job and never WAL-persisted — after
	// a restart a recovered job reports no progress until its next
	// attempt starts.
	Progress *Progress `json:"progress,omitempty"`

	// TraceID is the request ID that submitted the job (the inbound
	// X-Request-ID when the client sent one), correlating the job's
	// lifecycle with serve request logs and flight-recorder bundles.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the persisted lifecycle trace: intake, WAL append, queue
	// wait, per-attempt lease, pipeline stage starts, retries and the
	// terminal transition, capped at MaxTraceEvents.  Unlike Progress it
	// is durable — stage events ride the WAL (unsynced; they survive
	// kill -9 via the OS page cache, and losing them on power failure
	// loses only diagnostics), so after a crash the trace names the
	// stage the process died in.
	Trace []TraceEvent `json:"trace,omitempty"`
}

// TraceEvent is one step of a job's persisted lifecycle trace.
type TraceEvent struct {
	At      time.Time `json:"at"`
	Event   string    `json:"event"`
	Stage   string    `json:"stage,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	// WallNS carries the duration the event closes (queue-wait, the
	// terminal attempt's run time).
	WallNS int64 `json:"wall_ns,omitempty"`
}

// Lifecycle trace event names.
const (
	TraceIntake         = "intake"
	TraceWALAppend      = "wal-append"
	TraceQueueWait      = "queue-wait"
	TraceLease          = "lease"
	TraceStage          = "stage"
	TraceRetry          = "retry"
	TraceQuarantine     = "quarantine"
	TraceComplete       = "complete"
	TraceCrashRecovered = "crash-recovered"
	// TraceReclaim marks a lease the coordinator took back after its
	// TTL expired (worker killed, partitioned, or wedged).
	TraceReclaim = "lease-reclaimed"
	// TraceCacheHit marks a duplicate submission answered from this
	// job's content-addressed result — appended to the succeeded job,
	// so operators can see which cached reports still earn their keep.
	TraceCacheHit = "cache-hit"
	// TraceCheckpoint marks a streaming epoch checkpoint committed to
	// the WAL; TraceResume marks an attempt that restored from one
	// instead of starting at event zero, and TraceResumeRejected one
	// that found its checkpoint undecodable and started from zero.
	TraceCheckpoint     = "checkpoint"
	TraceResume         = "checkpoint-resume"
	TraceResumeRejected = "resume-rejected"
)

// MaxTraceEvents caps a job's persisted trace; past it one truncation
// marker is kept and further events are dropped.
const MaxTraceEvents = 512

// InterruptedStage returns the pipeline stage the job's most recent
// attempt had reached (from the last persisted stage event of the
// final attempt), for naming what a crash interrupted.
func (j *Job) InterruptedStage() string {
	for i := len(j.Trace) - 1; i >= 0; i-- {
		if j.Trace[i].Event == TraceStage {
			return j.Trace[i].Stage
		}
		if j.Trace[i].Event == TraceLease {
			break // attempt leased but no stage reached yet
		}
	}
	return ""
}

// Progress is a running job's live position.
type Progress struct {
	Stage  string `json:"stage"`
	Events uint64 `json:"events"`
	Total  uint64 `json:"total,omitempty"`
}

// Name is the job's display name: the workload, or the submitted
// program's name.
func (j *Job) Name() string {
	if j.Workload != "" {
		return j.Workload
	}
	var p struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(j.Program, &p); err == nil && p.Name != "" {
		return p.Name
	}
	return "(program)"
}

// Clone deep-copies the job so store snapshots can leave the lock.
func (j *Job) Clone() *Job {
	c := *j
	if j.Error != nil {
		e := *j.Error
		c.Error = &e
	}
	if j.Result != nil {
		r := *j.Result
		c.Result = &r
	}
	if j.Progress != nil {
		p := *j.Progress
		c.Progress = &p
	}
	if j.Lease != nil {
		l := *j.Lease
		c.Lease = &l
	}
	if j.Trace != nil {
		c.Trace = append([]TraceEvent(nil), j.Trace...)
	}
	return &c
}

// Result is the persisted outcome of a succeeded job — the fields of a
// synchronous /v1/profile response that are worth keeping on disk (the
// full span tree stays in memory with the request that produced it;
// only the root span id is kept for correlation).
type Result struct {
	Status   string          `json:"status"`
	WallNS   int64           `json:"wall_ns"`
	Ops      uint64          `json:"ops,omitempty"`
	Degraded bool            `json:"degraded,omitempty"`
	Budget   []string        `json:"budget,omitempty"`
	SpanID   uint64          `json:"span_id,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
}

// JobError is the structured failure attached to a job.
type JobError struct {
	Message string `json:"message"`
	// Terminal marks failures that retrying cannot fix (validation
	// errors, deterministic budget exhaustion); the pool quarantines
	// instead of retrying.
	Terminal bool `json:"terminal"`
	// Budget carries the structured *budget.Error when the failure was
	// a resource exhaustion.
	Budget *budget.Error `json:"budget,omitempty"`
	// SpanID correlates the failing attempt with its trace.
	SpanID uint64 `json:"span_id,omitempty"`
	// Attempt is the attempt number that produced this error.
	Attempt int `json:"attempt,omitempty"`
}

func (e *JobError) Error() string { return e.Message }

// ErrRetryable marks an error chain as transient: the pool retries it
// (until attempts run out) even though it is not a timeout.  Wrap with
// fmt.Errorf("...: %w", jobstore.ErrRetryable) or errors.Join.
var ErrRetryable = errors.New("retryable")

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

// NewJobError builds the persisted form of an execution error.
func NewJobError(err error, attempt int, spanID uint64) *JobError {
	je := &JobError{
		Message:  err.Error(),
		Terminal: !Retryable(err),
		SpanID:   spanID,
		Attempt:  attempt,
	}
	if be, ok := budget.AsError(err); ok {
		je.Budget = be
	}
	return je
}

// JobSummary is the list form served by GET /v1/jobs.
type JobSummary struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Name      string    `json:"name"`
	State     State     `json:"state"`
	Attempts  int       `json:"attempts"`
	Submitted time.Time `json:"submitted_at"`
	Finished  time.Time `json:"finished_at,omitempty"`
	NextRunAt time.Time `json:"next_run_at,omitempty"`
	Error     string    `json:"error,omitempty"`
	Degraded  bool      `json:"degraded,omitempty"`
	WallNS    int64     `json:"wall_ns,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
}

// Summary renders the job's list form.
func (j *Job) Summary() JobSummary {
	s := JobSummary{
		ID: j.ID, Kind: j.Kind, Name: j.Name(), State: j.State,
		Attempts: j.Attempts, Submitted: j.SubmittedAt,
		Finished: j.FinishedAt, NextRunAt: j.NextRunAt,
		TraceID: j.TraceID,
	}
	if j.Error != nil {
		s.Error = j.Error.Message
	}
	if j.Result != nil {
		s.Degraded = j.Result.Degraded
		s.WallNS = j.Result.WallNS
	}
	return s
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
