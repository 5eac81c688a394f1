package jobstore

import (
	"errors"
	"fmt"
	"time"
)

// Every attempt runs under a lease, whoever runs it: the pool's own
// slots and remote, stateless workers claim work the same way.  A
// lease is (job id, attempt, fencing token, TTL).  A remote worker
// heartbeats to extend the TTL while its attempt runs and posts the
// terminal result under the token.  The pool's reclaimer resolves any
// lease whose TTL passes (the worker was killed, partitioned away, or
// wedged), and the fencing token makes a zombie's late heartbeat or
// result a structured rejection instead of a double-completion:
//
//   - Tokens are issued from a store-wide monotonic counter that is
//     WAL-persisted (and snapshot-carried), so a token granted after a
//     coordinator restart is always greater than any granted before.
//   - Only the exact token of the job's *current* lease may renew,
//     checkpoint or resolve it.  A reclaimed, restarted, or re-leased
//     job has no lease (or a newer one), so the stale token fails with
//     ErrFenced.
//   - The WAL's terminal-never-regresses replay invariant holds across
//     reclaim races: a completion that reached the WAL wins; a zombie
//     arriving later is fenced at the store boundary before any state
//     transition is attempted.
//
// A lease granted with TTL 0 never expires: that is how the pool's own
// slots claim.  Nothing can outlive such a lease's holder, because
// leases are volatile — a restart voids every one of them (replay
// re-queues the leased jobs), which is the safe direction: the
// attempts re-run, and the pipeline's determinism makes the re-run's
// report bit-identical.
//
// The store applies outcomes; it decides none.  Whether a failed
// attempt retries or quarantines, and after which backoff, is
// Pool.Fail's call.

// Lease is one granted claim on a job.  The Token is the fencing
// token: every state-changing call on the lease must present it.
type Lease struct {
	JobID     string        `json:"job_id"`
	Attempt   int           `json:"attempt"`
	Token     uint64        `json:"token"`
	Worker    string        `json:"worker,omitempty"`
	ExpiresAt time.Time     `json:"expires_at"`
	TTL       time.Duration `json:"ttl_ns"`
}

// Lease TTL clamps: a hostile or buggy worker cannot request a lease
// so short it flaps nor so long it parks a job for an hour.
const (
	MinLeaseTTL = 200 * time.Millisecond
	MaxLeaseTTL = 10 * time.Minute
)

// ClampLeaseTTL folds a requested TTL into [MinLeaseTTL, MaxLeaseTTL],
// substituting def (itself clamped) when the request is zero.
func ClampLeaseTTL(req, def time.Duration) time.Duration {
	if req == 0 {
		req = def
	}
	if req < MinLeaseTTL {
		req = MinLeaseTTL
	}
	if req > MaxLeaseTTL {
		req = MaxLeaseTTL
	}
	return req
}

// Lease error taxonomy, classified so the serving layer can map them
// to HTTP: no ready job → 204, fenced (stale token, reclaimed lease,
// already-terminal job) → 409, job deleted/unknown → 410.
// ErrAttemptsSpent never leaves the pool (see AcquireLease).
var (
	ErrNoReadyJob    = errors.New("no ready job")
	ErrFenced        = errors.New("fenced")
	ErrLeaseGone     = errors.New("job gone")
	ErrAttemptsSpent = errors.New("attempt budget spent")
)

// AcquireLease claims the oldest ready job for worker — queued, its
// NextRunAt passed, in submission order — under a lease with a fresh
// fencing token.  The job transitions to running with its attempt
// counter incremented and persisted, and the grant records the job's
// queue wait.  ttl 0 grants a lease that never expires (the pool's own
// slots).
//
// A ready job whose attempt counter already reached maxAttempts is
// leased without starting another attempt and returned with
// ErrAttemptsSpent: its attempts were cut short by process deaths
// (every other failed attempt is resolved by Pool.Fail), and the
// caller must resolve the lease with FailLease instead of running it.
// When no queued job is ready it returns ErrNoReadyJob.
func (s *Store) AcquireLease(worker string, ttl time.Duration, maxAttempts int) (*Lease, *Job, error) {
	now := time.Now().UTC()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State != StateQueued || j.NextRunAt.After(now) {
			continue
		}
		if j.Attempts >= maxAttempts {
			j.State = StateRunning
			return s.leaseLocked(j, worker, ttl, now), j.Clone(), ErrAttemptsSpent
		}
		return s.grantLocked(j, worker, ttl, now)
	}
	return nil, nil, ErrNoReadyJob
}

// grantLocked starts the job's next attempt under a new lease, WAL-
// persisted best-effort: losing the record replays the job as queued,
// which only re-runs it.
func (s *Store) grantLocked(j *Job, worker string, ttl time.Duration, now time.Time) (*Lease, *Job, error) {
	// Queue wait: from when the job last became eligible — submission,
	// the scheduled retry time, or its latest lifecycle event (a retry
	// without backoff), whichever is latest.
	base := j.SubmittedAt
	if j.NextRunAt.After(base) {
		base = j.NextRunAt
	}
	if n := len(j.Trace); n > 0 && j.Trace[n-1].At.After(base) {
		base = j.Trace[n-1].At
	}
	j.State = StateRunning
	j.Attempts++
	j.StartedAt = now
	j.NextRunAt = time.Time{}
	lease := s.leaseLocked(j, worker, ttl, now)
	detail := fmt.Sprintf("worker %s token %d", worker, lease.Token)
	if ttl > 0 {
		detail += " ttl " + ttl.String()
	}
	evs := traceAppend(j,
		TraceEvent{At: now, Event: TraceQueueWait, Attempt: j.Attempts, WallNS: int64(max(now.Sub(base), 0))},
		TraceEvent{At: now, Event: TraceLease, Attempt: j.Attempts, Detail: detail})
	if werr := s.appendLocked(record{
		T: "state", ID: j.ID, State: StateRunning, Attempts: j.Attempts, At: now,
		Fence: lease.Token, Worker: worker, TraceEvents: evs,
	}); werr != nil {
		s.logf("jobstore: job %s: lease record not persisted (%v); continuing", j.ID, werr)
	}
	s.mirror(j, evs)
	s.reg.Add("jobs.leases.granted", 1)
	s.publishGauges()
	return lease, j.Clone(), nil
}

// leaseLocked registers a lease on the job's current attempt and
// returns a copy for the holder.
func (s *Store) leaseLocked(j *Job, worker string, ttl time.Duration, now time.Time) *Lease {
	s.fence++
	ls := &Lease{JobID: j.ID, Attempt: j.Attempts, Token: s.fence, Worker: worker, TTL: ttl}
	if ttl > 0 {
		ls.ExpiresAt = now.Add(ttl)
	}
	s.leases[j.ID] = ls
	return cloneLease(ls)
}

// RenewLease extends the lease's TTL (a worker heartbeat).  Fencing:
// only the current lease's exact token renews; a reclaimed or
// re-granted lease fails with ErrFenced, a deleted job with
// ErrLeaseGone — the zombie worker learns it no longer owns the job.
func (s *Store) RenewLease(jobID string, token uint64, ttl time.Duration) (*Lease, error) {
	now := time.Now().UTC()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[jobID]; !ok {
		return nil, fmt.Errorf("jobstore: %w: %s", ErrLeaseGone, jobID)
	}
	ls := s.leases[jobID]
	if ls == nil || ls.Token != token {
		s.reg.Add("jobs.leases.fenced", 1)
		return nil, fmt.Errorf("jobstore: %w: job %s has no lease with token %d", ErrFenced, jobID, token)
	}
	ls.ExpiresAt = now.Add(ttl)
	ls.TTL = ttl
	s.reg.Add("jobs.leases.renewed", 1)
	return cloneLease(ls), nil
}

// CompleteLease marks a leased job succeeded under its fencing token,
// first appending the trace events the worker shipped with the result
// (pipeline stages observed on a remote node).  When it returns nil
// the completion record is fsynced: a restart serves the result from
// disk and never re-runs the job.  A stale token — the lease was
// reclaimed, the coordinator restarted, or another worker re-ran the
// job to completion — fails with ErrFenced and the job is untouched:
// terminal-never-regresses holds across nodes.
func (s *Store) CompleteLease(jobID string, token uint64, res *Result, evs []TraceEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.fenceCheckLocked(jobID, token)
	if err != nil {
		return err
	}
	now := time.Now().UTC()
	traced := traceAppend(j, evs...)
	traced = append(traced, traceAppend(j, TraceEvent{
		At: now, Event: TraceComplete, Attempt: j.Attempts, WallNS: res.WallNS,
	})...)
	if err := s.appendLocked(record{
		T: "state", ID: jobID, State: StateSucceeded, At: now, Result: res, TraceEvents: traced,
	}); err != nil {
		// Not durable: keep the lease so the holder can retry or fail
		// the attempt, and roll the trace back to match disk.
		j.Trace = j.Trace[:len(j.Trace)-len(traced)]
		return err
	}
	s.mirror(j, traced)
	delete(s.leases, jobID)
	j.State = StateSucceeded
	j.FinishedAt = now
	j.Result = res
	j.Error = nil
	if j.CacheKey != "" {
		s.cache[j.CacheKey] = j.ID
	}
	delete(s.live, jobID)
	delete(s.ckpts, jobID)
	s.reg.Add("jobs.completed", 1)
	s.publishGauges()
	return nil
}

// FailLease applies Pool.Fail's verdict on a failed attempt under its
// fencing token.  The trace events the worker shipped (stages the
// attempt reached before failing) are appended first; then a terminal
// jerr quarantines the job and any other re-queues it for nextRun.
// Persistence is best-effort: losing the record replays the job as
// running, which re-queues it.
func (s *Store) FailLease(jobID string, token uint64, jerr *JobError, evs []TraceEvent, nextRun time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.fenceCheckLocked(jobID, token)
	if err != nil {
		return err
	}
	now := time.Now().UTC()
	delete(s.leases, jobID)
	j.Error = jerr
	rec := record{T: "state", ID: jobID, Attempts: j.Attempts, Error: jerr}
	ev := TraceEvent{At: now, Attempt: j.Attempts, Detail: jerr.Message}
	if jerr.Terminal {
		j.State, j.FinishedAt, rec.At = StateFailed, now, now
		ev.Event = TraceQuarantine
		delete(s.live, jobID)
		delete(s.ckpts, jobID)
		s.reg.Add("jobs.quarantined", 1)
	} else {
		j.State, j.NextRunAt, rec.NextRunAt = StateQueued, nextRun, nextRun
		ev.Event = TraceRetry
		s.reg.Add("jobs.retries", 1)
	}
	rec.State = j.State
	rec.TraceEvents = append(traceAppend(j, evs...), traceAppend(j, ev)...)
	if werr := s.appendLocked(rec); werr != nil {
		s.logf("jobstore: job %s: %s record not persisted (%v); continuing", jobID, ev.Event, werr)
	}
	s.mirror(j, rec.TraceEvents)
	s.publishGauges()
	return nil
}

// fenceCheckLocked validates a lease-holding call: the job must exist
// (else ErrLeaseGone), must not be terminal, and the presented token
// must be the current lease's.  Callers hold s.mu.
func (s *Store) fenceCheckLocked(jobID string, token uint64) (*Job, error) {
	j, ok := s.jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("jobstore: %w: %s", ErrLeaseGone, jobID)
	}
	if j.State.Terminal() {
		s.reg.Add("jobs.leases.fenced", 1)
		return nil, fmt.Errorf("jobstore: %w: job %s already %s", ErrFenced, jobID, j.State)
	}
	ls := s.leases[jobID]
	if ls == nil || ls.Token != token {
		s.reg.Add("jobs.leases.fenced", 1)
		return nil, fmt.Errorf("jobstore: %w: job %s has no lease with token %d", ErrFenced, jobID, token)
	}
	return j, nil
}

// ExpiredLeases returns the leases whose TTL has passed by now, for the
// pool's reclaimer to resolve.  Leases that never expire (the pool's
// own slots) are the only ones skipped.
func (s *Store) ExpiredLeases(now time.Time) []*Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Lease
	for _, ls := range s.leases {
		if !ls.ExpiresAt.IsZero() && !ls.ExpiresAt.After(now) {
			out = append(out, cloneLease(ls))
		}
	}
	return out
}

// NextRunAt returns when the earliest queued job becomes claimable —
// its retry time, or now once that has passed — or zero when no job is
// queued.
func (s *Store) NextRunAt() time.Time {
	now := time.Now().UTC()
	s.mu.Lock()
	defer s.mu.Unlock()
	var next time.Time
	for _, j := range s.jobs {
		if j.State != StateQueued {
			continue
		}
		at := j.NextRunAt
		if at.Before(now) {
			at = now
		}
		if next.IsZero() || at.Before(next) {
			next = at
		}
	}
	return next
}

// Leases counts outstanding leases.
func (s *Store) Leases() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// FenceToken returns the store's current fencing counter (tests,
// monotonicity audits).
func (s *Store) FenceToken() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fence
}

func cloneLease(ls *Lease) *Lease {
	c := *ls
	return &c
}
