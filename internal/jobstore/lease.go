package jobstore

import (
	"errors"
	"fmt"
	"time"
)

// Leases are how remote, stateless workers claim work from the
// coordinator's store.  A lease is (job id, attempt, fencing token,
// TTL): the worker heartbeats to extend the TTL while its attempt
// runs and posts the terminal result under the token.  The store's
// reclaimer re-queues any job whose lease expires — the worker was
// killed, partitioned away, or wedged — and the fencing token makes a
// zombie's late heartbeat or result a structured rejection instead of
// a double-completion:
//
//   - Tokens are issued from a store-wide monotonic counter that is
//     WAL-persisted (and snapshot-carried), so a token granted after a
//     coordinator restart is always greater than any granted before.
//   - Only the exact token of the job's *current* lease may renew or
//     complete it.  A reclaimed, restarted, or re-leased job has no
//     lease (or a newer one), so the stale token fails with ErrFenced.
//   - The WAL's terminal-never-regresses replay invariant holds across
//     reclaim races: a completion that reached the WAL wins; a zombie
//     arriving later is fenced at the store boundary before any state
//     transition is attempted.
//
// Leases are deliberately volatile: a coordinator restart invalidates
// every outstanding lease (replay re-queues the leased jobs), which is
// exactly the safe direction — the attempts re-run, and the pipeline's
// determinism makes the re-run's report bit-identical.

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

// LeaseView is the volatile lease info filled into Get/List clones of
// a remotely running job — everything but the fencing token, which
// only the granted worker may hold.
type LeaseView struct {
	Worker    string    `json:"worker,omitempty"`
	Attempt   int       `json:"attempt"`
	ExpiresAt time.Time `json:"expires_at"`
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
var (
	ErrNoReadyJob = errors.New("no ready job")
	ErrFenced     = errors.New("fenced")
	ErrLeaseGone  = errors.New("job gone")
)

// AcquireLease claims the oldest ready queued job for worker: the job
// transitions to running (attempt counter incremented and persisted,
// exactly like a local Start) and a lease with a fresh fencing token
// is granted for ttl.  Jobs whose persisted attempt counter already
// reached maxAttempts are quarantined during the scan instead of being
// handed out — the remote twin of the pool's crash-loop guard.  When
// no queued job is ready it returns ErrNoReadyJob.
func (s *Store) AcquireLease(worker string, ttl time.Duration, maxAttempts int) (*Lease, *Job, error) {
	now := time.Now().UTC()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State != StateQueued || (!j.NextRunAt.IsZero() && j.NextRunAt.After(now)) {
			continue
		}
		if maxAttempts > 0 && j.Attempts >= maxAttempts {
			s.quarantineLocked(j, &JobError{
				Message:  fmt.Sprintf("quarantined after %d crash-interrupted attempts", j.Attempts),
				Terminal: true,
				Attempt:  j.Attempts,
			})
			continue
		}
		return s.grantLocked(j, worker, ttl, now)
	}
	return nil, nil, ErrNoReadyJob
}

// grantLocked issues the lease: queued → running with a fresh fencing
// token, WAL-persisted like Start (best-effort: losing the record
// replays the job as queued, which only re-runs it).
func (s *Store) grantLocked(j *Job, worker string, ttl time.Duration, now time.Time) (*Lease, *Job, error) {
	s.fence++
	j.State = StateRunning
	j.Attempts++
	j.StartedAt = now
	j.NextRunAt = time.Time{}
	lease := &Lease{
		JobID: j.ID, Attempt: j.Attempts, Token: s.fence,
		Worker: worker, ExpiresAt: now.Add(ttl), TTL: ttl,
	}
	s.leases[j.ID] = lease
	evs := traceAppend(j, TraceEvent{
		At: now, Event: TraceLease, Attempt: j.Attempts,
		Detail: fmt.Sprintf("worker %s token %d ttl %s", worker, lease.Token, ttl),
	})
	if werr := s.appendLocked(record{
		T: "state", ID: j.ID, State: StateRunning, Attempts: j.Attempts, At: now,
		Fence: lease.Token, Worker: worker, TraceEvents: evs,
	}); werr != nil {
		s.logf("jobstore: job %s: lease record not persisted (%v); continuing", j.ID, werr)
	}
	s.reg.Add("jobs.leases.granted", 1)
	s.publishGauges()
	return cloneLease(lease), j.Clone(), nil
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
// (pipeline stages observed on the remote node).  A stale token —
// the lease was reclaimed, the coordinator restarted, or another
// worker re-ran the job to completion — fails with ErrFenced and the
// job is untouched: terminal-never-regresses holds across nodes.
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
		// Not durable: keep the lease so the worker can retry the post,
		// and roll the trace back to match disk.
		j.Trace = j.Trace[:len(j.Trace)-len(traced)]
		return err
	}
	delete(s.leases, jobID)
	j.State = StateSucceeded
	j.FinishedAt = now
	j.Result = res
	j.Error = nil
	if j.CacheKey != "" {
		s.cache[j.CacheKey] = j.ID
	}
	delete(s.live, jobID)
	s.reg.Add("jobs.completed", 1)
	s.publishGauges()
	return nil
}

// FailLease resolves a failed remote attempt under its fencing token,
// first appending the trace events the worker shipped (stages the
// attempt reached before dying): terminal errors (and exhausted
// attempt budgets) quarantine the job, anything else re-queues it for
// nextRun.  It returns whether the job was re-queued so the caller can
// wake local workers.
func (s *Store) FailLease(jobID string, token uint64, jerr *JobError, evs []TraceEvent, maxAttempts int, nextRun time.Time) (requeued bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.fenceCheckLocked(jobID, token)
	if err != nil {
		return false, err
	}
	traceAppend(j, evs...)
	delete(s.leases, jobID)
	if jerr != nil && jerr.Terminal {
		s.quarantineLocked(j, jerr)
		return false, nil
	}
	if maxAttempts > 0 && j.Attempts >= maxAttempts {
		q := &JobError{
			Message:  fmt.Sprintf("quarantined after %d attempts: %s", j.Attempts, errMessage(jerr)),
			Terminal: true,
			Attempt:  j.Attempts,
		}
		if jerr != nil {
			q.Budget, q.SpanID = jerr.Budget, jerr.SpanID
		}
		s.quarantineLocked(j, q)
		return false, nil
	}
	s.retryLocked(j, jerr, nextRun)
	return true, nil
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

// Reclaimed describes one lease the reclaimer took back.
type Reclaimed struct {
	JobID       string
	Worker      string
	Attempt     int
	Token       uint64
	Quarantined bool
	TraceID     string
}

// ReclaimExpired re-queues every job whose lease TTL has passed — the
// worker was killed, partitioned, or wedged.  Jobs whose attempt
// budget is exhausted quarantine instead.  The zombie worker's token
// dies here: any later heartbeat or result post under it is fenced.
func (s *Store) ReclaimExpired(now time.Time, maxAttempts int) []Reclaimed {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Reclaimed
	for id, ls := range s.leases {
		if ls.ExpiresAt.After(now) {
			continue
		}
		j, ok := s.jobs[id]
		delete(s.leases, id)
		if !ok || j.State != StateRunning {
			continue
		}
		rc := Reclaimed{JobID: id, Worker: ls.Worker, Attempt: ls.Attempt, Token: ls.Token, TraceID: j.TraceID}
		jerr := &JobError{
			Message: fmt.Sprintf("lease expired: worker %s silent past %s (attempt %d)",
				ls.Worker, ls.TTL, ls.Attempt),
			Attempt: ls.Attempt,
		}
		traceAppend(j, TraceEvent{
			At: now, Event: TraceReclaim, Attempt: ls.Attempt,
			Detail: fmt.Sprintf("worker %s token %d", ls.Worker, ls.Token),
		})
		if maxAttempts > 0 && j.Attempts >= maxAttempts {
			jerr.Terminal = true
			jerr.Message = fmt.Sprintf("quarantined after %d attempts; last: %s", j.Attempts, jerr.Message)
			s.quarantineLocked(j, jerr)
			rc.Quarantined = true
		} else {
			s.retryLocked(j, jerr, time.Time{})
		}
		s.reg.Add("jobs.leases.reclaimed", 1)
		out = append(out, rc)
	}
	if len(out) > 0 {
		s.publishGauges()
	}
	return out
}

// quarantineLocked is Quarantine's body for callers already holding
// s.mu (lease resolution, the acquire scan's crash-loop guard).
func (s *Store) quarantineLocked(j *Job, jerr *JobError) {
	now := time.Now().UTC()
	j.State = StateFailed
	j.Error = jerr
	j.FinishedAt = now
	evs := traceAppend(j, TraceEvent{
		At: now, Event: TraceQuarantine, Attempt: j.Attempts, Detail: errMessage(jerr),
	})
	if werr := s.appendLocked(record{
		T: "state", ID: j.ID, State: StateFailed, Attempts: j.Attempts, At: now, Error: jerr,
		TraceEvents: evs,
	}); werr != nil {
		s.logf("jobstore: job %s: quarantine record not persisted (%v); continuing", j.ID, werr)
	}
	delete(s.live, j.ID)
	s.reg.Add("jobs.quarantined", 1)
	s.publishGauges()
}

// retryLocked is Retry's body for callers already holding s.mu.
func (s *Store) retryLocked(j *Job, jerr *JobError, nextRun time.Time) {
	j.State = StateQueued
	j.Error = jerr
	j.NextRunAt = nextRun
	evs := traceAppend(j, TraceEvent{
		At: time.Now().UTC(), Event: TraceRetry, Attempt: j.Attempts, Detail: errMessage(jerr),
	})
	if werr := s.appendLocked(record{
		T: "state", ID: j.ID, State: StateQueued, Attempts: j.Attempts,
		Error: jerr, NextRunAt: nextRun, TraceEvents: evs,
	}); werr != nil {
		s.logf("jobstore: job %s: retry record not persisted (%v); continuing", j.ID, werr)
	}
	s.reg.Add("jobs.retries", 1)
	s.publishGauges()
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

func errMessage(jerr *JobError) string {
	if jerr == nil {
		return ""
	}
	return jerr.Message
}
