package jobstore

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"polyprof/internal/obs"
)

func submitJob(t *testing.T, s *Store) *Job {
	t.Helper()
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	return j
}

// leasePool builds a pool with no slots over s, so a test drives its
// Fail and reclaim by hand.
func leasePool(t *testing.T, s *Store, maxAttempts int) *Pool {
	p := fastPool(s, nil, -1, maxAttempts)
	t.Cleanup(p.Stop)
	return p
}

// expireLease forces the job's lease into the past so the reclaimer
// sees it as expired without the test sleeping out a real TTL.
func expireLease(s *Store, jobID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ls := s.leases[jobID]; ls != nil {
		ls.ExpiresAt = time.Now().UTC().Add(-time.Second)
	}
}

// TestLeaseGrantRenewComplete: the happy path — claim, heartbeat,
// report — leaves the job succeeded with the remote trace merged in.
func TestLeaseGrantRenewComplete(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	s, _, err := Open(t.TempDir(), Options{Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := submitJob(t, s)

	lease, job, err := s.AcquireLease("w1", time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lease.JobID != j.ID || lease.Attempt != 1 || lease.Token == 0 || lease.Worker != "w1" {
		t.Fatalf("lease = %+v", lease)
	}
	if job.State != StateRunning || job.Attempts != 1 {
		t.Fatalf("granted job = %+v", job)
	}
	if got := s.Get(j.ID); got.Lease == nil || got.Lease.Worker != "w1" {
		t.Fatalf("Get lease view = %+v", got.Lease)
	}

	renewed, err := s.RenewLease(j.ID, lease.Token, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !renewed.ExpiresAt.After(lease.ExpiresAt) {
		t.Fatalf("renew did not extend: %v -> %v", lease.ExpiresAt, renewed.ExpiresAt)
	}

	evs := []TraceEvent{{At: time.Now().UTC(), Event: TraceStage, Stage: "vm", Attempt: 1, Detail: "worker w1"}}
	res := &Result{Status: "ok", Report: json.RawMessage(`{"x":1}`)}
	if err := s.CompleteLease(j.ID, lease.Token, res, evs); err != nil {
		t.Fatal(err)
	}
	got := s.Get(j.ID)
	if got.State != StateSucceeded || got.Result == nil || string(got.Result.Report) != `{"x":1}` {
		t.Fatalf("job after lease completion = %+v", got)
	}
	if got.Lease != nil {
		t.Fatalf("terminal job still shows a lease: %+v", got.Lease)
	}
	foundRemoteStage := false
	for _, ev := range got.Trace {
		if ev.Event == TraceStage && ev.Stage == "vm" && ev.Detail == "worker w1" {
			foundRemoteStage = true
		}
	}
	if !foundRemoteStage {
		t.Fatalf("shipped remote stage event missing from trace: %+v", got.Trace)
	}
	if n := reg.Counter("jobs.leases.granted").Value(); n != 1 {
		t.Fatalf("jobs.leases.granted = %d", n)
	}
	if s.Leases() != 0 {
		t.Fatalf("leases outstanding after completion: %d", s.Leases())
	}
}

// TestLeaseAcquireOrderAndBackoffGate: claims hand out the oldest
// ready job and skip retries whose NextRunAt is still in the future.
func TestLeaseAcquireOrderAndBackoffGate(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	j1 := submitJob(t, s)
	j2 := submitJob(t, s)

	// Push j1 into a delayed retry: it must not be claimable.
	l1 := claim(t, s, j1.ID)
	if err := s.FailLease(j1.ID, l1.Token, &JobError{Message: "transient"}, nil, time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	lease, job, err := s.AcquireLease("w1", time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != j2.ID {
		t.Fatalf("claimed %s, want %s (j1 is backoff-gated)", job.ID, j2.ID)
	}
	if _, _, err := s.AcquireLease("w2", time.Second, 3); !errors.Is(err, ErrNoReadyJob) {
		t.Fatalf("second claim = %v, want ErrNoReadyJob", err)
	}
	_ = lease
}

// TestLeaseExpiredResultPostFenced: a worker that outlives its lease
// posts into a reclaimed job and must get ErrFenced — the re-queued
// job is untouched.
func TestLeaseExpiredResultPostFenced(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	s, _, err := Open(t.TempDir(), Options{Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := submitJob(t, s)

	lease, _, err := s.AcquireLease("zombie", time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	expireLease(s, j.ID)
	p := leasePool(t, s, 3)
	if n := p.reclaim(time.Now().UTC()); n != 1 {
		t.Fatalf("reclaimed %d leases, want 1", n)
	}
	if got := s.Get(j.ID); got.State != StateQueued {
		t.Fatalf("job after reclaim = %s, want queued", got.State)
	}

	err = s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie completion = %v, want ErrFenced", err)
	}
	if got := s.Get(j.ID); got.State != StateQueued || got.Result != nil {
		t.Fatalf("job mutated by fenced completion: %+v", got)
	}
	if _, err := p.Fail(j.ID, lease.Token, &JobError{Message: "late"}, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie failure post = %v, want ErrFenced", err)
	}
	if n := reg.Counter("jobs.leases.fenced").Value(); n == 0 {
		t.Fatal("jobs.leases.fenced not bumped")
	}
}

// TestLeaseDuplicateHeartbeatAfterReclaim: heartbeats under a
// reclaimed token fence; a fresh claim's heartbeat works.
func TestLeaseDuplicateHeartbeatAfterReclaim(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	j := submitJob(t, s)

	old, _, err := s.AcquireLease("w1", time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	expireLease(s, j.ID)
	if n := leasePool(t, s, 5).reclaim(time.Now().UTC()); n != 1 {
		t.Fatalf("reclaimed %d leases, want 1", n)
	}
	if _, err := s.RenewLease(j.ID, old.Token, time.Second); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie heartbeat = %v, want ErrFenced", err)
	}
	fresh, _, err := s.AcquireLease("w2", time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Token <= old.Token {
		t.Fatalf("fence token not monotonic: %d then %d", old.Token, fresh.Token)
	}
	if _, err := s.RenewLease(j.ID, fresh.Token, time.Second); err != nil {
		t.Fatalf("fresh heartbeat = %v", err)
	}
	// The zombie's heartbeat still fences even while a live lease
	// exists — exact-token match, not just presence.
	if _, err := s.RenewLease(j.ID, old.Token, time.Second); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-token heartbeat = %v, want ErrFenced", err)
	}
}

// TestLeaseReclaimQuarantinesAtMaxAttempts: a job whose attempts are
// spent when its lease expires quarantines instead of re-queueing.
func TestLeaseReclaimQuarantinesAtMaxAttempts(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	j := submitJob(t, s)
	p := leasePool(t, s, 2)

	for i := 0; i < 2; i++ {
		lease, _, err := s.AcquireLease("w1", time.Second, 2)
		if err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
		expireLease(s, j.ID)
		if n := p.reclaim(time.Now().UTC()); n != 1 {
			t.Fatalf("claim %d: reclaimed %d leases, want 1", i, n)
		}
		quarantined := s.Get(j.ID).State == StateFailed
		if i == 0 && quarantined {
			t.Fatal("quarantined with attempts to spare")
		}
		if i == 1 && !quarantined {
			t.Fatal("not quarantined at max attempts")
		}
		_ = lease
	}
	got := s.Get(j.ID)
	if got.State != StateFailed || got.Error == nil || !got.Error.Terminal {
		t.Fatalf("job after exhausted reclaims = %+v", got)
	}
}

// TestLeaseCoordinatorRestartRequeues: a coordinator restart kills
// every outstanding lease — replay re-queues the leased (running)
// jobs, fresh tokens fence stale ones, and the fence counter never
// regresses.
func TestLeaseCoordinatorRestartRequeues(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)
	j := submitJob(t, s)
	old, _, err := s.AcquireLease("w1", time.Minute, 5)
	if err != nil {
		t.Fatal(err)
	}
	oldFence := s.FenceToken()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, recovered := testOpen(t, dir)
	defer s2.Close()
	if s2.Leases() != 0 {
		t.Fatalf("leases survived restart: %d", s2.Leases())
	}
	if s2.FenceToken() < oldFence {
		t.Fatalf("fence regressed across restart: %d -> %d", oldFence, s2.FenceToken())
	}
	found := false
	for _, r := range recovered {
		if r.ID == j.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("leased job not in recovered set: %+v", recovered)
	}
	if got := s2.Get(j.ID); got.State != StateQueued {
		t.Fatalf("leased job after restart = %s, want queued", got.State)
	}

	// The pre-restart worker is now a zombie: fenced on every call.
	if err := s2.CompleteLease(j.ID, old.Token, &Result{Status: "ok"}, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("pre-restart completion = %v, want ErrFenced", err)
	}
	if _, err := s2.RenewLease(j.ID, old.Token, time.Second); !errors.Is(err, ErrFenced) {
		t.Fatalf("pre-restart heartbeat = %v, want ErrFenced", err)
	}
	// Fresh grants fence above every pre-restart token.
	fresh, _, err := s2.AcquireLease("w2", time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Token <= old.Token {
		t.Fatalf("post-restart token %d not above pre-restart %d", fresh.Token, old.Token)
	}
}

// TestLeaseTerminalNeverRegresses: a completion that reached the WAL
// wins against any later lease-holder call, even one with the exact
// token that completed it.
func TestLeaseTerminalNeverRegresses(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	j := submitJob(t, s)
	lease, _, err := s.AcquireLease("w1", time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); err != nil {
		t.Fatal(err)
	}
	// Duplicate result post (the worker retried after a slow ack).
	if err := s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("duplicate completion = %v, want ErrFenced", err)
	}
	if err := s.FailLease(j.ID, lease.Token, &JobError{Message: "late"}, nil, time.Time{}); !errors.Is(err, ErrFenced) {
		t.Fatalf("failure after completion = %v, want ErrFenced", err)
	}
	if got := s.Get(j.ID); got.State != StateSucceeded {
		t.Fatalf("terminal state regressed: %s", got.State)
	}
}

// TestLeaseFailLeaseRetriesAndQuarantines: non-terminal failures
// re-queue with the given nextRun; terminal ones quarantine.
func TestLeaseFailLeaseRetriesAndQuarantines(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	j := submitJob(t, s)

	lease, _, err := s.AcquireLease("w1", time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	nextRun := time.Now().UTC().Add(time.Hour)
	if err := s.FailLease(j.ID, lease.Token, &JobError{Message: "transient", Attempt: 1}, nil, nextRun); err != nil {
		t.Fatalf("FailLease = %v", err)
	}
	got := s.Get(j.ID)
	if got.State != StateQueued || !got.NextRunAt.Equal(nextRun) {
		t.Fatalf("job after retryable failure = %+v", got)
	}

	// The job is backoff-gated; pull NextRunAt forward to claim again.
	s.mu.Lock()
	s.jobs[j.ID].NextRunAt = time.Time{}
	s.mu.Unlock()
	lease, _, err = s.AcquireLease("w1", time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FailLease(j.ID, lease.Token, &JobError{Message: "bad program", Terminal: true, Attempt: 2}, nil, time.Time{}); err != nil {
		t.Fatalf("terminal FailLease = %v", err)
	}
	if got := s.Get(j.ID); got.State != StateFailed {
		t.Fatalf("job after terminal failure = %s", got.State)
	}
}

// TestLeaseUnknownJobGone: calls against a never-submitted id are
// ErrLeaseGone (410), not fenced.
func TestLeaseUnknownJobGone(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	if _, err := s.RenewLease("job-999", 1, time.Second); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("renew unknown = %v, want ErrLeaseGone", err)
	}
	if err := s.CompleteLease("job-999", 1, &Result{Status: "ok"}, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("complete unknown = %v, want ErrLeaseGone", err)
	}
}

// TestLeasedJobImmuneToDeleteAndTTL: satellite regression — a job
// holding a live lease can be neither deleted nor TTL-expired, even if
// store internals are poked into a shape the sweeper would collect.
func TestLeasedJobImmuneToDeleteAndTTL(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	j := submitJob(t, s)
	if _, _, err := s.AcquireLease("w1", time.Minute, 3); err != nil {
		t.Fatal(err)
	}

	if err := s.Delete(j.ID); !errors.Is(err, ErrJobActive) {
		t.Fatalf("delete of leased job = %v, want ErrJobActive", err)
	}
	// ExpireBefore only collects terminal jobs, so a leased (running)
	// job is already out of scope; the live-lease guard must hold even
	// if the job looks terminal (defense against future state bugs).
	s.mu.Lock()
	s.jobs[j.ID].FinishedAt = time.Now().Add(-time.Hour)
	s.mu.Unlock()
	if n, err := s.ExpireBefore(time.Now()); err != nil || n != 0 {
		t.Fatalf("ExpireBefore = %d, %v; want 0 leased jobs collected", n, err)
	}
	if got := s.Get(j.ID); got == nil {
		t.Fatal("leased job vanished")
	}
}

// TestLeaseCacheIndexOnRemoteCompletion: a CacheKey-carrying job
// completed through the lease path lands in the cache index, and the
// index survives restart.
func TestLeaseCacheIndexOnRemoteCompletion(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)
	j := &Job{Kind: KindWorkload, Workload: "example1", CacheKey: "cafe01"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	lease, _, err := s.AcquireLease("w1", time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok", Report: json.RawMessage(`{"r":1}`)}, nil); err != nil {
		t.Fatal(err)
	}
	if hit := s.LookupCache("cafe01"); hit == nil || hit.ID != j.ID {
		t.Fatalf("LookupCache = %+v", hit)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := testOpen(t, dir)
	defer s2.Close()
	if hit := s2.LookupCache("cafe01"); hit == nil || hit.ID != j.ID {
		t.Fatalf("cache index lost across restart: %+v", hit)
	}
}

// TestClampLeaseTTL pins the clamp behavior the HTTP layer depends on.
func TestClampLeaseTTL(t *testing.T) {
	cases := []struct {
		req, def, want time.Duration
	}{
		{0, 30 * time.Second, 30 * time.Second},
		{time.Millisecond, 30 * time.Second, MinLeaseTTL},
		{time.Hour, 30 * time.Second, MaxLeaseTTL},
		{5 * time.Second, 30 * time.Second, 5 * time.Second},
		{0, 0, MinLeaseTTL},
	}
	for _, c := range cases {
		if got := ClampLeaseTTL(c.req, c.def); got != c.want {
			t.Errorf("ClampLeaseTTL(%v, %v) = %v, want %v", c.req, c.def, got, c.want)
		}
	}
}
