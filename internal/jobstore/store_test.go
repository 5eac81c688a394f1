package jobstore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polyprof/internal/obs"
)

func testOpen(t *testing.T, dir string) (*Store, []*Job) {
	t.Helper()
	s, recovered, err := Open(dir, Options{Registry: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return s, recovered
}

// claim leases the oldest ready job, which must be id, the way a pool
// slot does: under a lease that never expires.
func claim(t *testing.T, s *Store, id string) *Lease {
	t.Helper()
	lease, job, err := s.AcquireLease(LocalWorker, 0, 3)
	if err != nil {
		t.Fatalf("claim %s: %v", id, err)
	}
	if job.ID != id {
		t.Fatalf("claimed %s, want %s", job.ID, id)
	}
	return lease
}

// TestStoreSubmitGetList: the basic lifecycle without restarts.
func TestStoreSubmitGetList(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()

	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.State != StateQueued {
		t.Fatalf("submitted job = %+v", j)
	}
	lease := claim(t, s, j.ID)
	if lease.Attempt != 1 {
		t.Fatalf("claim attempt = %d", lease.Attempt)
	}
	if _, _, err := s.AcquireLease(LocalWorker, 0, 3); err == nil {
		t.Fatal("double start accepted")
	}
	res := &Result{Status: "ok", Report: json.RawMessage(`{"x":1}`)}
	if err := s.CompleteLease(j.ID, lease.Token, res, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteLease(j.ID, lease.Token, res, nil); err == nil {
		t.Fatal("double completion accepted")
	}
	got := s.Get(j.ID)
	if got.State != StateSucceeded || got.Result == nil || string(got.Result.Report) != `{"x":1}` {
		t.Fatalf("job after completion = %+v", got)
	}
	if l, _ := s.ListPage(StateSucceeded, 0, 0); len(l) != 1 || l[0].ID != j.ID {
		t.Fatalf("list(succeeded) = %+v", l)
	}
	if l, _ := s.ListPage(StateQueued, 0, 0); len(l) != 0 {
		t.Fatalf("list(queued) = %+v", l)
	}
}

// TestStoreRestartDurability: acknowledged jobs — queued, running,
// succeeded, failed — survive a reopen with the right states: running
// re-enqueues, terminal states stay terminal with their payloads.
func TestStoreRestartDurability(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)

	mk := func() *Job {
		j := &Job{Kind: KindWorkload, Workload: "example1"}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	// Claims take the oldest ready job, so the queued one is submitted
	// last.
	running := mk()
	done := mk()
	failed := mk()
	queued := mk()
	claim(t, s, running.ID)
	lease := claim(t, s, done.ID)
	if err := s.CompleteLease(done.ID, lease.Token, &Result{Status: "ok", Report: json.RawMessage(`{"r":2}`)}, nil); err != nil {
		t.Fatal(err)
	}
	lease = claim(t, s, failed.ID)
	if err := s.FailLease(failed.ID, lease.Token, &JobError{Message: "poison", Terminal: true, Attempt: 1}, nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a crash by just reopening the directory.
	s2, recovered := testOpen(t, dir)
	defer s2.Close()

	if got := s2.Get(queued.ID); got == nil || got.State != StateQueued {
		t.Fatalf("queued job after crash = %+v", got)
	}
	if got := s2.Get(running.ID); got == nil || got.State != StateQueued || got.Attempts != 1 {
		t.Fatalf("running job after crash = %+v", got)
	}
	if got := s2.Get(done.ID); got == nil || got.State != StateSucceeded || string(got.Result.Report) != `{"r":2}` {
		t.Fatalf("succeeded job after crash = %+v", got)
	}
	if got := s2.Get(failed.ID); got == nil || got.State != StateFailed || got.Error == nil || got.Error.Message != "poison" {
		t.Fatalf("failed job after crash = %+v", got)
	}
	ids := map[string]bool{}
	for _, j := range recovered {
		ids[j.ID] = true
	}
	if !ids[queued.ID] || !ids[running.ID] || ids[done.ID] || ids[failed.ID] {
		t.Fatalf("recovered set = %v", ids)
	}
	// New submissions must not collide with pre-crash ids.
	nj := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s2.Submit(nj); err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{queued.ID, running.ID, done.ID, failed.ID} {
		if nj.ID == old {
			t.Fatalf("id %s reused after crash", nj.ID)
		}
	}
}

// TestStoreSnapshotCompaction: compaction folds the WAL into
// snapshot.json, drops old generations, and the result reopens
// identically — including after repeated cycles.
func TestStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SnapshotEvery: 4, Registry: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 10; i++ {
		j := &Job{Kind: KindWorkload, Workload: "example1"}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		lease := claim(t, s, j.ID)
		if err := s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok", WallNS: int64(i)}, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close-time compaction only the snapshot and one fresh WAL
	// generation should remain.
	entries, _ := os.ReadDir(dir)
	var wals int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal.") {
			wals++
		}
	}
	if wals != 1 {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("want exactly 1 WAL generation after compaction, have %v", names)
	}

	s2, recovered := testOpen(t, dir)
	defer s2.Close()
	if len(recovered) != 0 {
		t.Fatalf("recovered = %v, want none", recovered)
	}
	for i, id := range ids {
		j := s2.Get(id)
		if j == nil || j.State != StateSucceeded || j.Result.WallNS != int64(i) {
			t.Fatalf("job %s after compacted reopen = %+v", id, j)
		}
	}
}

// TestStoreTornTailRecovery: a crash that tears the last WAL record
// loses only that unacknowledged record; everything fsynced before it
// survives and the torn bytes are truncated away.
func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	// Tear the active generation by appending garbage (a partial write
	// the crash never finished).
	gens, err := s.walGenerations()
	if err != nil || len(gens) == 0 {
		t.Fatalf("generations: %v %v", gens, err)
	}
	active := s.walFile(gens[len(gens)-1])
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0xbe})
	f.Close()

	s2, recovered := testOpen(t, dir)
	defer s2.Close()
	if got := s2.Get(j.ID); got == nil || got.State != StateQueued {
		t.Fatalf("job after torn tail = %+v", got)
	}
	if len(recovered) != 1 || recovered[0].ID != j.ID {
		t.Fatalf("recovered = %+v", recovered)
	}
}

// TestStoreHistoryPersists: request-history blobs ride the same WAL and
// reappear after a reopen, bounded by MaxHistory.
func TestStoreHistoryPersists(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{MaxHistory: 3, Registry: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		blob := json.RawMessage(fmt.Sprintf(`{"id":"req-%d"}`, i))
		if err := s.AppendHistory(blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := testOpen(t, dir)
	defer s2.Close()
	hist := s2.History()
	if len(hist) != 3 {
		t.Fatalf("history length = %d, want 3 (bounded)", len(hist))
	}
	if string(hist[2]) != `{"id":"req-4"}` || string(hist[0]) != `{"id":"req-2"}` {
		t.Fatalf("history = %v", hist)
	}
}

// TestStoreCorruptSnapshotFallsBack: a trashed snapshot.json degrades
// to replaying the surviving WAL generations instead of failing open.
func TestStoreCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	// Submit lives in the current WAL generation; corrupt the snapshot
	// written at Open time.
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, recovered := testOpen(t, dir)
	defer s2.Close()
	if got := s2.Get(j.ID); got == nil || got.State != StateQueued {
		t.Fatalf("job after snapshot corruption = %+v", got)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered = %+v", recovered)
	}
}

// TestRetryClassification: the error taxonomy the pool relies on.
func TestRetryClassification(t *testing.T) {
	if !Retryable(fmt.Errorf("wrapped: %w", ErrRetryable)) {
		t.Fatal("ErrRetryable chain not retryable")
	}
	if Retryable(fmt.Errorf("validation: bad register")) {
		t.Fatal("plain error retryable")
	}
	je := NewJobError(fmt.Errorf("program rejected: bad block"), 2, 7)
	if !je.Terminal || je.Attempt != 2 || je.SpanID != 7 {
		t.Fatalf("job error = %+v", je)
	}
	if je2 := NewJobError(fmt.Errorf("x: %w", ErrRetryable), 1, 0); je2.Terminal {
		t.Fatalf("retryable error marked terminal: %+v", je2)
	}
}

// TestParseState rejects unknown filters.
func TestParseState(t *testing.T) {
	if st, err := ParseState("queued"); err != nil || st != StateQueued {
		t.Fatalf("ParseState(queued) = %v, %v", st, err)
	}
	if _, err := ParseState("exploded"); err == nil {
		t.Fatal("ParseState accepted garbage")
	}
}

// TestStoreGaugesAndCounters: the obs wiring the issue asks for —
// per-state gauges and lifecycle counters move with the jobs.
func TestStoreGaugesAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	s, _, err := Open(t.TempDir(), Options{Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("jobs.queued").Value(); got != 1 {
		t.Fatalf("jobs.queued = %d, want 1", got)
	}
	lease := claim(t, s, j.ID)
	if got := reg.Gauge("jobs.running").Value(); got != 1 {
		t.Fatalf("jobs.running = %d, want 1", got)
	}
	if err := s.FailLease(j.ID, lease.Token, &JobError{Message: "transient"}, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("jobs.retries").Value(); got != 1 {
		t.Fatalf("jobs.retries = %d, want 1", got)
	}
	lease = claim(t, s, j.ID)
	if err := s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("jobs.succeeded").Value(); got != 1 {
		t.Fatalf("jobs.succeeded = %d, want 1", got)
	}
	if got := reg.Counter("jobstore.wal.records").Value(); got == 0 {
		t.Fatal("jobstore.wal.records never incremented")
	}
	if h := reg.Histogram("jobstore.wal.fsync_ns"); h == nil || h.Count() == 0 {
		t.Fatal("jobstore.wal.fsync_ns histogram empty")
	}
}

// TestReplayFencelessRunningRecord: data directories written before
// every attempt was leased hold `running` records without a fencing
// token.  They replay like any crash-interrupted attempt: the job is
// re-queued with its attempt counted, and runs again.
func TestReplayFencelessRunningRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	err := s.appendLocked(record{T: "state", ID: j.ID, State: StateRunning, Attempts: 1, At: time.Now().UTC()})
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no Close.
	s2, recovered := testOpen(t, dir)
	defer s2.Close()
	if len(recovered) != 1 || recovered[0].State != StateQueued || recovered[0].Attempts != 1 {
		t.Fatalf("recovered = %+v", recovered)
	}
	if s2.FenceToken() != 0 {
		t.Fatalf("fence = %d after replaying only fence-less records", s2.FenceToken())
	}
	pool := fastPool(s2, func(_ context.Context, job *Job, _ *Lease) (*Result, error) {
		return &Result{Status: "ok"}, nil
	}, 1, 3)
	pool.Start()
	defer pool.Stop()
	if got := waitTerminal(t, s2, j.ID); got.State != StateSucceeded || got.Attempts != 2 {
		t.Fatalf("job after replay = state %s attempts %d", got.State, got.Attempts)
	}
}
