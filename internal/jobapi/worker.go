package jobapi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"polyprof/internal/jobexec"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
)

// WorkerOptions tunes a remote worker process.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Name identifies this worker on claims (default "<host>:<pid>").
	Name string
	// Slots bounds concurrently leased attempts (default 2).
	Slots int
	// LeaseTTL is the requested lease TTL; zero takes the
	// coordinator's default.  Heartbeats fire every TTL/3.
	LeaseTTL time.Duration
	// Poll is the idle sleep between claim attempts when the queue is
	// empty (default 500ms, jittered).
	Poll time.Duration
	// Exec configures each attempt (budgets, timeout); Exec.Registry
	// is ignored — the worker creates one per attempt.
	Exec jobexec.Options
	// Logf receives one line per lifecycle event (nil to disable).
	Logf func(format string, args ...any)
}

// Worker claims jobs from a coordinator and runs them with the shared
// attempt runner.  It holds no durable state: killing it at any point
// loses nothing — the coordinator reclaims its leases after TTL and
// re-queues the jobs.
type Worker struct {
	opts   WorkerOptions
	client *Client
}

// NewWorker builds a worker; Run starts it.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Slots <= 0 {
		opts.Slots = 2
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	return &Worker{
		opts:   opts,
		client: &Client{Base: opts.Coordinator, Worker: opts.Name},
	}
}

// Name returns the worker's claim identity.
func (w *Worker) Name() string { return w.opts.Name }

// Run claims and executes jobs until ctx cancels, then drains: leased
// attempts are canceled (context cancellation classifies as retryable,
// so the coordinator re-queues them) and their failure results are
// still posted on a short grace context so the coordinator learns
// immediately instead of waiting out the TTL.
func (w *Worker) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for i := 0; i < w.opts.Slots; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.loop(ctx, slot)
		}(i)
	}
	wg.Wait()
}

// loop is one claim slot: acquire, execute, report, repeat.
func (w *Worker) loop(ctx context.Context, slot int) {
	idleBackoff := w.opts.Poll
	for ctx.Err() == nil {
		grant, err := w.client.Acquire(ctx, w.opts.LeaseTTL)
		switch {
		case err == nil:
			idleBackoff = w.opts.Poll
			w.runAttempt(ctx, grant)
			continue
		case errors.Is(err, ErrNoJob):
			idleBackoff = w.opts.Poll
		case ctx.Err() != nil:
			return
		default:
			// Coordinator unreachable (restarting, partitioned): back off
			// up to 5s and keep polling — workers outlive coordinator
			// restarts by construction.
			w.logf("jobapi: worker %s: acquire failed: %v (retrying in %s)", w.opts.Name, err, idleBackoff)
			if idleBackoff < 5*time.Second {
				idleBackoff *= 2
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(jitter(idleBackoff)):
		}
	}
}

// runAttempt executes one leased job: heartbeats keep the lease alive
// while the attempt runs, stage transitions accumulate as trace events
// to ship with the result, and the terminal outcome is posted under
// the fencing token.
func (w *Worker) runAttempt(ctx context.Context, grant *Grant) {
	job, lease := grant.Job, grant.Lease
	w.logf("jobapi: worker %s: leased %s (%s) attempt %d token %d ttl %s",
		w.opts.Name, job.ID, job.Name(), lease.Attempt, lease.Token, lease.TTL)

	// attemptCtx cancels the pipeline when the worker shuts down or —
	// via the heartbeat loop — when the coordinator fences us: a worker
	// that lost its lease must stop burning CPU on a job someone else
	// now owns.
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		evMu   sync.Mutex
		events []jobstore.TraceEvent
	)
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	reg.OnStage(func(stage string) {
		evMu.Lock()
		events = append(events, jobstore.TraceEvent{
			At: time.Now().UTC(), Event: jobstore.TraceStage, Stage: stage,
			Attempt: lease.Attempt, Detail: "worker " + w.opts.Name,
		})
		evMu.Unlock()
	})

	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeat(attemptCtx, cancel, job.ID, lease)
	}()

	exec := w.opts.Exec
	exec.Registry = reg
	// Streaming wiring is the worker's own (caller-supplied hooks are
	// ignored like Exec.Registry): checkpoints commit through the
	// coordinator's lease-fenced endpoint, and the resume decision is
	// shipped home as a trace event.  No provisional hook — remote
	// attempts skip the per-epoch fold and render; live subscribers are
	// served by the coordinator.
	exec.Checkpoints = nil
	exec.OnProvisional = nil
	exec.OnResume = nil
	if job.EpochEvents > 0 {
		exec.Checkpoints = &remoteCheckpoints{
			worker: w, ctx: attemptCtx, jobID: job.ID, lease: lease, grant: grant.Checkpoint,
		}
		exec.OnResume = func(ev jobstore.TraceEvent) {
			w.logf("jobapi: worker %s: %s attempt %d %s: %s", w.opts.Name, job.ID, lease.Attempt, ev.Event, ev.Detail)
			ev.At, ev.Attempt = time.Now().UTC(), lease.Attempt
			ev.Detail = "worker " + w.opts.Name + " " + ev.Detail
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		}
	}
	res, runErr := jobexec.Run(attemptCtx, job, fmt.Sprintf("job:%s#%d", job.Name(), lease.Attempt), exec)
	cancel() // stop heartbeating before the result post races a renewal
	hbWG.Wait()

	req := &ResultRequest{Token: lease.Token}
	if runErr != nil {
		req.Error = jobstore.NewJobError(runErr, lease.Attempt, res.SpanID)
	} else {
		req.Result = res
	}
	evMu.Lock()
	req.TraceEvents = events
	evMu.Unlock()
	w.report(ctx, job.ID, lease, req)
}

// heartbeat renews the lease every TTL/3 until the attempt ends.  A
// fenced or gone response cancels the attempt — the coordinator
// reclaimed the job and this worker is now a zombie for it.  Transport
// errors are tolerated: the next tick retries, and if the partition
// outlives the TTL the coordinator reclaims (which the worker then
// learns from the fenced response).
func (w *Worker) heartbeat(ctx context.Context, cancel context.CancelFunc, jobID string, lease *jobstore.Lease) {
	ttl := lease.TTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		_, err := w.client.Heartbeat(ctx, jobID, lease.Token, ttl)
		switch {
		case err == nil:
		case errors.Is(err, ErrFenced), errors.Is(err, ErrGone):
			w.logf("jobapi: worker %s: fenced on heartbeat for %s (token %d): %v — abandoning attempt",
				w.opts.Name, jobID, lease.Token, err)
			cancel()
			return
		case ctx.Err() != nil:
			return
		default:
			w.logf("jobapi: worker %s: heartbeat for %s failed: %v (lease expires %s)",
				w.opts.Name, jobID, err, lease.ExpiresAt.Format(time.RFC3339))
		}
	}
}

// report posts the attempt outcome, retrying transient failures —
// the coordinator keeps the lease alive on its side if its WAL append
// failed, so a retried post is safe.  Fenced/gone end the retries: the
// job moved on without us.  The post survives worker shutdown via a
// grace context so a drained worker still reports its canceled
// attempts promptly.
func (w *Worker) report(ctx context.Context, jobID string, lease *jobstore.Lease, req *ResultRequest) {
	postCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 15*time.Second)
	defer cancel()
	backoff := 200 * time.Millisecond
	for {
		rr, err := w.client.Report(postCtx, jobID, req)
		switch {
		case err == nil:
			status := "failed attempt"
			if req.Result != nil {
				status = "result"
			}
			w.logf("jobapi: worker %s: posted %s for %s (token %d) -> %s",
				w.opts.Name, status, jobID, req.Token, rr.State)
			return
		case errors.Is(err, ErrFenced), errors.Is(err, ErrGone):
			w.logf("jobapi: worker %s: result for %s fenced (token %d): %v — dropping (another attempt owns it)",
				w.opts.Name, jobID, req.Token, err)
			return
		case !Transient(err), postCtx.Err() != nil:
			w.logf("jobapi: worker %s: result for %s not delivered: %v — coordinator will reclaim after TTL",
				w.opts.Name, jobID, err)
			return
		default:
			w.logf("jobapi: worker %s: result post for %s failed: %v (retrying in %s)",
				w.opts.Name, jobID, err, backoff)
			select {
			case <-postCtx.Done():
				return
			case <-time.After(jitter(backoff)):
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// remoteCheckpoints backs jobexec's CheckpointStore over the lease
// protocol: Save is a fenced POST to the coordinator (200 = the epoch
// is fsynced there), Load replays the checkpoint that rode along with
// the grant.  Transport blips are retried briefly; a fenced or gone
// response fails the save — the attempt no longer owns the job, and
// failing the epoch is what stops it from burning CPU for a dead
// lease.
type remoteCheckpoints struct {
	worker *Worker
	ctx    context.Context
	jobID  string
	lease  *jobstore.Lease
	grant  *jobstore.JobCheckpoint
}

func (rc *remoteCheckpoints) Save(epoch, events uint64, data []byte) error {
	req := &CheckpointRequest{
		Token: rc.lease.Token, Attempt: rc.lease.Attempt,
		Epoch: epoch, Events: events, Data: data,
	}
	backoff := 200 * time.Millisecond
	for tries := 0; ; tries++ {
		err := rc.worker.client.Checkpoint(rc.ctx, rc.jobID, req)
		switch {
		case err == nil:
			return nil
		case !Transient(err), rc.ctx.Err() != nil, tries >= 2:
			return fmt.Errorf("committing epoch %d for %s: %w", epoch, rc.jobID, err)
		}
		rc.worker.logf("jobapi: worker %s: checkpoint post for %s failed: %v (retrying in %s)",
			rc.worker.opts.Name, rc.jobID, err, backoff)
		select {
		case <-rc.ctx.Done():
			return rc.ctx.Err()
		case <-time.After(jitter(backoff)):
		}
		backoff *= 2
	}
}

func (rc *remoteCheckpoints) Load() ([]byte, bool) {
	if rc.grant == nil || len(rc.grant.Data) == 0 {
		return nil, false
	}
	return rc.grant.Data, true
}

// jitter spreads a delay ±25% so a fleet of workers does not poll in
// lockstep.
func jitter(d time.Duration) time.Duration {
	return d*3/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}
