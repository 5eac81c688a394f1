package jobstore

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"polyprof/internal/obs"
)

// fastPool builds a pool with millisecond backoff for tests.
func fastPool(s *Store, run Runner, workers, maxAttempts int) *Pool {
	return NewPool(s, run, PoolOptions{
		Workers:     workers,
		MaxAttempts: maxAttempts,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Registry:    obs.NewRegistry(),
	})
}

// waitTerminal polls until the job leaves the live states.
func waitTerminal(t *testing.T, s *Store, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j := s.Get(id); j != nil && j.State.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state: %+v", id, s.Get(id))
	return nil
}

func submit(t *testing.T, s *Store, p *Pool) *Job {
	t.Helper()
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	p.Wake(time.Time{})
	return j
}

// TestPoolRunsJobs: submitted jobs execute and complete with their
// results persisted.
func TestPoolRunsJobs(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	pool := fastPool(s, func(_ context.Context, job *Job, _ *Lease) (*Result, error) {
		return &Result{Status: "ok", Ops: 42}, nil
	}, 2, 3)
	pool.Start()
	defer pool.Stop()

	var jobs []*Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, submit(t, s, pool))
	}
	for _, j := range jobs {
		got := waitTerminal(t, s, j.ID)
		if got.State != StateSucceeded || got.Result == nil || got.Result.Ops != 42 {
			t.Fatalf("job %s = %+v", j.ID, got)
		}
		if got.Attempts != 1 {
			t.Fatalf("job %s took %d attempts", j.ID, got.Attempts)
		}
	}
}

// TestPoolRetriesTransientFailures: a runner that fails retryably twice
// succeeds on the third attempt, with backoff in between.
func TestPoolRetriesTransientFailures(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	var calls atomic.Int64
	pool := fastPool(s, func(_ context.Context, job *Job, _ *Lease) (*Result, error) {
		if calls.Add(1) < 3 {
			return nil, fmt.Errorf("flaky storage: %w", ErrRetryable)
		}
		return &Result{Status: "ok"}, nil
	}, 1, 5)
	pool.Start()
	defer pool.Stop()

	j := submit(t, s, pool)
	got := waitTerminal(t, s, j.ID)
	if got.State != StateSucceeded || got.Attempts != 3 {
		t.Fatalf("job = state %s attempts %d", got.State, got.Attempts)
	}
}

// TestPoolTerminalErrorNotRetried: a terminal (validation-shaped)
// failure quarantines on the first attempt — never retried.
func TestPoolTerminalErrorNotRetried(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	var calls atomic.Int64
	pool := fastPool(s, func(_ context.Context, job *Job, _ *Lease) (*Result, error) {
		calls.Add(1)
		return nil, fmt.Errorf("program rejected: unknown opcode")
	}, 1, 5)
	pool.Start()
	defer pool.Stop()

	j := submit(t, s, pool)
	got := waitTerminal(t, s, j.ID)
	if got.State != StateFailed || got.Attempts != 1 {
		t.Fatalf("job = state %s attempts %d", got.State, got.Attempts)
	}
	if got.Error == nil || !got.Error.Terminal || got.Error.Message == "" {
		t.Fatalf("terminal error not recorded: %+v", got.Error)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("runner called %d times, want 1", n)
	}
}

// TestPoolQuarantinesPoison: a job that fails retryably forever is
// quarantined after MaxAttempts with the last error attached.
func TestPoolQuarantinesPoison(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	pool := fastPool(s, func(_ context.Context, job *Job, _ *Lease) (*Result, error) {
		return nil, fmt.Errorf("always down: %w", ErrRetryable)
	}, 1, 3)
	pool.Start()
	defer pool.Stop()

	j := submit(t, s, pool)
	got := waitTerminal(t, s, j.ID)
	if got.State != StateFailed || got.Attempts != 3 {
		t.Fatalf("job = state %s attempts %d", got.State, got.Attempts)
	}
	if got.Error == nil || !got.Error.Terminal {
		t.Fatalf("quarantine error = %+v", got.Error)
	}
}

// TestPoolQuarantinesCrashLoopedJobAtRecovery: a job whose attempts
// were all interrupted by crashes (Start persisted, nothing after)
// arrives at recovery with its attempt budget spent; the pool must
// quarantine it without running it again, or a job that hard-kills the
// process would crash-loop the daemon forever.
func TestPoolQuarantinesCrashLoopedJobAtRecovery(t *testing.T) {
	dir := t.TempDir()
	const maxAttempts = 3
	s, _ := testOpen(t, dir)
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	var recovered []*Job
	for i := 1; i <= maxAttempts; i++ {
		claim(t, s, j.ID)
		// Crash mid-attempt: no CompleteLease/FailLease transition;
		// reopening replays the running job back to queued.
		s.Close()
		s, recovered = testOpen(t, dir)
		if len(recovered) != 1 || recovered[0].Attempts != i {
			t.Fatalf("after crash %d: recovered = %+v", i, recovered)
		}
	}
	defer s.Close()

	var calls atomic.Int64
	pool := fastPool(s, func(_ context.Context, job *Job, _ *Lease) (*Result, error) {
		calls.Add(1)
		return &Result{Status: "ok"}, nil
	}, 1, maxAttempts)
	pool.Start()
	defer pool.Stop()

	got := waitTerminal(t, s, j.ID)
	if got.State != StateFailed || got.Attempts != maxAttempts {
		t.Fatalf("job = state %s attempts %d, want failed/%d", got.State, got.Attempts, maxAttempts)
	}
	if got.Error == nil || !got.Error.Terminal {
		t.Fatalf("quarantine error = %+v", got.Error)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("runner invoked %d times for an attempts-exhausted job, want 0", n)
	}
}

// TestPoolWakeKeepsEarliest: the slots' wake timer holds the earliest
// pending retry time — a later one is ignored, an earlier one pulls it
// forward — and an immediate wake leaves it armed.
func TestPoolWakeKeepsEarliest(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	p := fastPool(s, nil, 1, 3)
	// No slots started: wakes accumulate for inspection.
	far := time.Now().Add(time.Hour)
	near := time.Now().Add(time.Minute)
	p.Wake(far)
	p.Wake(far.Add(time.Hour)) // later: ignored
	if !p.timerAt.Equal(far) || p.wakes != 0 {
		t.Fatalf("timer at %v (wakes %d), want %v", p.timerAt, p.wakes, far)
	}
	p.Wake(near) // earlier: pulled forward
	if !p.timerAt.Equal(near) {
		t.Fatalf("timer not pulled forward: %v", p.timerAt)
	}
	p.Wake(time.Time{})
	if p.wakes != 1 || !p.timerAt.Equal(near) {
		t.Fatalf("after immediate wake: wakes = %d, timer at %v", p.wakes, p.timerAt)
	}
	p.Stop()
	if p.timer.Stop() {
		t.Fatal("Stop left the wake timer armed")
	}
}

// TestPoolWakesForLaterRetry: the timer holds only the earliest retry
// time, yet a later one still runs — the slot that finds nothing ready
// re-arms the timer from the store.
func TestPoolWakesForLaterRetry(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	var ids []string
	for i := 0; i < 2; i++ {
		j := submitJob(t, s)
		ids = append(ids, j.ID)
		lease := claim(t, s, j.ID)
		next := time.Now().Add(time.Duration(20*(i+1)) * time.Millisecond)
		if err := s.FailLease(j.ID, lease.Token, &JobError{Message: "transient"}, nil, next); err != nil {
			t.Fatal(err)
		}
	}
	pool := fastPool(s, func(_ context.Context, job *Job, _ *Lease) (*Result, error) {
		return &Result{Status: "ok"}, nil
	}, 1, 3)
	pool.Start()
	defer pool.Stop()
	for _, id := range ids {
		if got := waitTerminal(t, s, id); got.State != StateSucceeded {
			t.Fatalf("job %s = %+v", id, got)
		}
	}
}

// TestPoolPanicContained: a panicking runner neither kills the worker
// nor wedges the job — it retries and eventually quarantines.
func TestPoolPanicContained(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	var calm atomic.Bool
	pool := fastPool(s, func(_ context.Context, job *Job, _ *Lease) (*Result, error) {
		if calm.Load() {
			return &Result{Status: "ok"}, nil
		}
		panic("hostile program escaped")
	}, 1, 2)
	pool.Start()
	defer pool.Stop()

	j := submit(t, s, pool)
	got := waitTerminal(t, s, j.ID)
	if got.State != StateFailed || got.Attempts != 2 {
		t.Fatalf("job = state %s attempts %d", got.State, got.Attempts)
	}
	// Same pool, same worker: if the panic had killed it, the next job
	// would never run.
	calm.Store(true)
	j2 := submit(t, s, pool)
	if got := waitTerminal(t, s, j2.ID); got.State != StateSucceeded {
		t.Fatalf("post-panic job = %+v", got)
	}
}

// TestPoolShutdownLeavesJobQueued: Stop cancels an in-flight attempt;
// the job goes back to queued (not failed) for the next process.
func TestPoolShutdownLeavesJobQueued(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	started := make(chan struct{})
	pool := fastPool(s, func(ctx context.Context, job *Job, _ *Lease) (*Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, 1, 3)
	pool.Start()

	j := submit(t, s, pool)
	<-started
	pool.Stop()
	got := s.Get(j.ID)
	if got.State != StateQueued {
		t.Fatalf("job after shutdown = %s, want queued", got.State)
	}
	// A new pool on the same store picks it up (what Open+Start do on
	// restart).
	pool2 := fastPool(s, func(_ context.Context, job *Job, _ *Lease) (*Result, error) {
		return &Result{Status: "ok"}, nil
	}, 1, 3)
	pool2.Start()
	defer pool2.Stop()
	if got := waitTerminal(t, s, j.ID); got.State != StateSucceeded {
		t.Fatalf("job after restart = %+v", got)
	}
}

// TestBackoffGrowsAndCaps: the delay doubles per attempt, stays within
// [base/2, max), and jitters.
func TestBackoffGrowsAndCaps(t *testing.T) {
	p := &Pool{opts: PoolOptions{BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second}}
	for attempt, wantFull := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		8: time.Second, // capped
	} {
		for i := 0; i < 20; i++ {
			d := p.backoff(attempt)
			if d < wantFull/2 || d > wantFull {
				t.Fatalf("backoff(%d) = %s, want in [%s, %s]", attempt, d, wantFull/2, wantFull)
			}
		}
	}
}
