package jobstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
)

// Runner executes one attempt of one job under its lease.  It returns
// the persisted result, or an error the pool classifies with
// Retryable.  A streaming attempt commits its checkpoints under the
// lease's token.
type Runner func(ctx context.Context, job *Job, lease *Lease) (*Result, error)

// LocalWorker names the pool's own slots on their leases.
const LocalWorker = "local"

// PoolOptions tunes the worker pool.
type PoolOptions struct {
	// Workers bounds concurrent local job executions (default 2).
	// Negative disables local execution entirely — the process is a
	// pure coordinator whose jobs only run on remote lease-holding
	// workers (the reclaimer and TTL sweeper still run).
	Workers int
	// MaxAttempts quarantines a job after this many started attempts
	// (default 3), local and remote alike.  Crash-interrupted attempts
	// count: the attempt counter is persisted at the lease grant, so a
	// job that reliably kills the daemon cannot crash-loop it forever.
	MaxAttempts int
	// BackoffBase is the first retry delay (default 250ms); each
	// further attempt doubles it, capped at BackoffMax (default 30s),
	// with jitter in [delay/2, delay).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// TTL garbage-collects terminal jobs: the pool sweeps the store
	// every TTL/4 (clamped to [1s, 1m]) and deletes (WAL-logged)
	// succeeded/failed jobs that finished more than TTL ago.  Zero
	// disables the sweeper.
	TTL time.Duration
	// DefaultLeaseTTL is the lease duration granted to remote workers
	// that do not request one (default 30s, clamped to
	// [MinLeaseTTL, MaxLeaseTTL]).  Expired leases are taken back and
	// their jobs re-queued every DefaultLeaseTTL/4 (clamped to
	// [100ms, 2s]).
	DefaultLeaseTTL time.Duration
	// Registry receives pool counters (default obs.Default).
	Registry *obs.Registry
	// Logf receives lifecycle lines (nil to disable).
	Logf func(format string, args ...any)
}

// Pool executes queued jobs from a Store with bounded concurrency and
// owns the job lifecycle's policy: its slots and remote workers claim
// through Acquire and resolve through Complete and Fail, and Fail alone
// decides between retry (with exponential backoff) and quarantine.
type Pool struct {
	store  *Store
	run    Runner
	opts   PoolOptions
	reg    *obs.Registry
	ctx    context.Context
	cancel context.CancelFunc

	// mu guards the slots' wake signal: wakes counts the Wake calls
	// that found work claimable now, so a slot that found no ready job
	// sleeps until it changes.  timer fires one such wake at timerAt,
	// the earliest pending retry time it was told of (zero: unarmed).
	mu      sync.Mutex
	cond    *sync.Cond
	wakes   uint64
	timer   *time.Timer
	timerAt time.Time
	stopped bool

	wg sync.WaitGroup
}

// NewPool builds a pool over store; call Start to begin executing.
func NewPool(store *Store, run Runner, opts PoolOptions) *Pool {
	switch {
	case opts.Workers == 0:
		opts.Workers = 2
	case opts.Workers < 0:
		opts.Workers = 0 // coordinator-only: no local execution
	}
	opts.DefaultLeaseTTL = ClampLeaseTTL(opts.DefaultLeaseTTL, 30*time.Second)
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 250 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 30 * time.Second
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		store: store, run: run, opts: opts, reg: opts.Registry,
		ctx: ctx, cancel: cancel,
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Start launches the local slots (plus the TTL sweeper when
// configured) and the lease reclaimer.  Slots claim from the store, so
// the jobs Open recovered are picked up like any other queued job.
func (p *Pool) Start() {
	for i := 0; i < p.opts.Workers; i++ {
		p.wg.Add(1)
		go p.slot()
	}
	if p.opts.TTL > 0 {
		p.wg.Add(1)
		go p.sweeper()
	}
	p.wg.Add(1)
	go p.reclaimer()
}

// reclaimer resolves expired leases every DefaultLeaseTTL/4, clamped
// to [100ms, 2s]: their workers were killed, partitioned away, or
// wedged.
func (p *Pool) reclaimer() {
	defer p.wg.Done()
	t := time.NewTicker(min(max(p.opts.DefaultLeaseTTL/4, 100*time.Millisecond), 2*time.Second))
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
		}
		p.reclaim(time.Now().UTC())
	}
}

// reclaim fails every lease expired by now through Fail (back to the
// queue, or quarantine when the attempt budget is spent) and returns
// how many it took back.  The silent worker's token dies here: any
// later heartbeat or result post under it is fenced.  Each reclaim
// freezes the flight recorder — a silent worker is an incident worth a
// black box.
func (p *Pool) reclaim(now time.Time) int {
	n := 0
	for _, ls := range p.store.ExpiredLeases(now) {
		state, err := p.Fail(ls.JobID, ls.Token, &JobError{
			Message: fmt.Sprintf("lease expired: worker %s silent past %s (attempt %d)", ls.Worker, ls.TTL, ls.Attempt),
		}, []TraceEvent{{
			At: now, Event: TraceReclaim, Attempt: ls.Attempt,
			Detail: fmt.Sprintf("worker %s token %d", ls.Worker, ls.Token),
		}})
		if err != nil {
			continue // resolved by its holder in the meantime
		}
		n++
		p.reg.Add("jobs.leases.reclaimed", 1)
		p.logf("jobstore: lease on %s reclaimed from worker %s (attempt %d, token %d); job %s",
			ls.JobID, ls.Worker, ls.Attempt, ls.Token, state)
		job := p.store.Get(ls.JobID)
		var trace string
		if job != nil {
			trace = job.TraceID
		}
		p.store.rec.Trigger("lease-reclaim", flight.TriggerInfo{
			Trace: trace, Job: ls.JobID,
			Detail: fmt.Sprintf("lease on %s reclaimed from silent worker %s (attempt %d, token %d)",
				ls.JobID, ls.Worker, ls.Attempt, ls.Token),
			Extra: job,
		})
	}
	return n
}

// DefaultLeaseTTL is the lease duration granted when a worker does not
// request one.
func (p *Pool) DefaultLeaseTTL() time.Duration { return p.opts.DefaultLeaseTTL }

// sweeper expires terminal jobs older than the TTL every TTL/4,
// clamped to [1s, 1m].  The first sweep runs immediately so jobs that
// aged out while the daemon was down are collected at startup, not one
// tick later.
func (p *Pool) sweeper() {
	defer p.wg.Done()
	t := time.NewTicker(min(max(p.opts.TTL/4, time.Second), time.Minute))
	defer t.Stop()
	for {
		n, err := p.store.ExpireBefore(time.Now().UTC().Add(-p.opts.TTL))
		if err != nil {
			p.logf("jobstore: ttl sweep: %v", err)
		}
		if n > 0 {
			p.logf("jobstore: ttl sweep expired %d job(s) older than %s", n, p.opts.TTL)
		}
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Wake tells the local slots that a job becomes claimable at `at` (zero
// or past: now) — a submission, a retry's backoff.  One timer holds the
// earliest pending time; a slot that finds nothing ready re-arms it
// from the store, so later retry times are never lost.
func (p *Pool) Wake(at time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := time.Until(at)
	switch {
	case p.stopped:
	case d <= 0:
		p.wakes++
		p.cond.Broadcast()
	case p.timerAt.IsZero() || at.Before(p.timerAt):
		p.timerAt = at
		if p.timer == nil {
			p.timer = time.AfterFunc(d, p.fire)
		} else {
			p.timer.Reset(d)
		}
	}
}

// fire is the timer's wake: the earliest pending retry is due.
func (p *Pool) fire() {
	p.mu.Lock()
	p.timerAt = time.Time{}
	p.mu.Unlock()
	p.Wake(time.Time{})
}

// Stop halts intake, cancels in-flight attempts, and waits for the
// slots to drain.
func (p *Pool) Stop() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		if p.timer != nil {
			p.timer.Stop()
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.cancel()
	p.wg.Wait()
}

// slot is one local execution slot: claim, run, resolve, repeat; with
// nothing ready, sleep until a Wake.
func (p *Pool) slot() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		seen, stopped := p.wakes, p.stopped
		p.mu.Unlock()
		if stopped {
			return
		}
		if p.claimAndRun() {
			continue
		}
		// Arm the wake for the earliest queued job (a retry that came due
		// after the claim's scan wakes at once).  A Wake that raced the
		// claim is not lost either: seen predates it.
		if at := p.store.NextRunAt(); !at.IsZero() {
			p.Wake(at)
		}
		p.mu.Lock()
		for p.wakes == seen && !p.stopped {
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
}

// claimAndRun runs one attempt under a lease that never expires and
// resolves it, reporting whether a job was claimed.  The recover
// contains panics from the persistence calls (e.g. an injected
// jobstore.wal.* fault in panic mode): the slot survives and the job —
// still running on disk — is re-queued by the next restart, exactly
// like a crash at that boundary.
func (p *Pool) claimAndRun() (claimed bool) {
	defer func() {
		if r := recover(); r != nil {
			p.reg.Add("jobstore.pool.panics", 1)
			p.logf("jobstore: pool: contained panic: %v", r)
		}
	}()
	lease, job, err := p.Acquire(LocalWorker, 0)
	if err != nil {
		if !errors.Is(err, ErrNoReadyJob) {
			p.logf("jobstore: pool: %v", err)
		}
		return false
	}
	claimed = true
	res, runErr := p.runAttempt(job, lease)
	if runErr == nil {
		if runErr = p.Complete(lease.JobID, lease.Token, res, nil); runErr == nil {
			return true
		}
		// The result is computed but not durable; a re-run
		// (deterministic) will produce it again.
		runErr = fmt.Errorf("completion not persisted: %v: %w", runErr, ErrRetryable)
	}
	if _, err := p.Fail(lease.JobID, lease.Token, NewJobError(runErr, lease.Attempt, spanIDOf(res)), nil); err != nil {
		p.logf("jobstore: job %s: %v", lease.JobID, err)
	}
	return true
}

// runAttempt invokes the Runner with panic containment: a panicking
// attempt becomes a retryable error, not a dead slot.
func (p *Pool) runAttempt(job *Job, lease *Lease) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("attempt panicked: %v: %w", r, ErrRetryable)
		}
	}()
	return p.run(p.ctx, job, lease)
}

// Acquire claims the oldest ready job for worker under a lease of ttl
// (0: never expires — the pool's own slots).  A job whose attempts were
// all cut short by process deaths arrives with its budget spent; Fail
// quarantines it instead of handing it out, or it would crash-loop the
// daemon forever.
func (p *Pool) Acquire(worker string, ttl time.Duration) (*Lease, *Job, error) {
	for {
		lease, job, err := p.store.AcquireLease(worker, ttl, p.opts.MaxAttempts)
		if !errors.Is(err, ErrAttemptsSpent) {
			return lease, job, err
		}
		if _, err := p.Fail(lease.JobID, lease.Token, &JobError{Message: "the process died during the last attempt"}, nil); err != nil {
			p.logf("jobstore: job %s: %v", lease.JobID, err)
		}
	}
}

// Complete marks a leased job succeeded under its token (see
// Store.CompleteLease).
func (p *Pool) Complete(jobID string, token uint64, res *Result, evs []TraceEvent) error {
	return p.store.CompleteLease(jobID, token, res, evs)
}

// Fail resolves a failed attempt under its lease: a local slot's
// runner error, a remote worker's posted failure, an expired lease, or
// a job whose budget crashes spent.  It is the one place that decides
// retry versus quarantine, for every kind of worker, counting attempts
// by the store's attempt counter (never a worker's claim):
//
//   - a terminal error quarantines;
//   - so does a failure of the last attempt the budget allows;
//   - an expired lease, or a pool shutting down, re-queues without
//     backoff — the job did not fail, its worker went away;
//   - anything else re-queues after an exponential backoff.
//
// Only the worker's shipped trace events and its error's message,
// terminal flag, budget and span id are taken from jerr.  Fail returns
// the state the job moved to.
func (p *Pool) Fail(jobID string, token uint64, jerr *JobError, evs []TraceEvent) (State, error) {
	job := p.store.Get(jobID)
	if job == nil {
		return "", fmt.Errorf("jobstore: %w: %s", ErrLeaseGone, jobID)
	}
	now := time.Now().UTC()
	e := *jerr
	e.Attempt = job.Attempts
	why := "terminal error"
	var next time.Time
	switch {
	case e.Terminal:
	case e.Attempt >= p.opts.MaxAttempts:
		why = "attempts exhausted"
		e.Terminal = true
		e.Message = fmt.Sprintf("quarantined after %d attempts: %s", e.Attempt, e.Message)
	case p.ctx.Err() != nil, job.Lease != nil && !job.Lease.ExpiresAt.IsZero() && !job.Lease.ExpiresAt.After(now):
	default:
		next = now.Add(p.backoff(e.Attempt))
	}
	if err := p.store.FailLease(jobID, token, &e, evs, next); err != nil {
		return "", err
	}
	if e.Terminal {
		p.logf("jobstore: job %s failed (%s): %s", jobID, why, e.Message)
		p.store.rec.Trigger("job-quarantine", flight.TriggerInfo{
			Trace: job.TraceID, Job: jobID,
			Detail: fmt.Sprintf("job %s quarantined (%s): %s", jobID, why, e.Message),
			Extra:  p.store.Get(jobID),
		})
		return StateFailed, nil
	}
	p.Wake(next)
	if next.IsZero() {
		return StateQueued, nil
	}
	p.logf("jobstore: job %s attempt %d failed (%s); retrying in %s", jobID, e.Attempt, e.Message, next.Sub(now).Round(time.Millisecond))
	if e.Attempt+1 == p.opts.MaxAttempts {
		// The next attempt is the job's last: capture the process state
		// now, while the failure pattern is fresh in the ring.
		p.store.rec.Trigger("retry-escalation", flight.TriggerInfo{
			Trace: job.TraceID, Job: jobID,
			Detail: fmt.Sprintf("job %s entering final attempt %d/%d after: %s",
				jobID, e.Attempt+1, p.opts.MaxAttempts, e.Message),
			Extra: p.store.Get(jobID),
		})
	}
	return StateQueued, nil
}

// backoff computes the delay before retrying after the given attempt:
// base * 2^(attempt-1) capped at max, jittered into [d/2, d) so
// retries from a burst of failures spread out.
func (p *Pool) backoff(attempt int) time.Duration {
	d := p.opts.BackoffBase
	for i := 1; i < attempt && d < p.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > p.opts.BackoffMax {
		d = p.opts.BackoffMax
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func (p *Pool) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

func spanIDOf(res *Result) uint64 {
	if res != nil {
		return res.SpanID
	}
	return 0
}
