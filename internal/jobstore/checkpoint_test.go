package jobstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestCheckpointRoundTrip: a running job's checkpoint commits, replaces
// earlier ones, survives a crash-reopen (both via WAL replay and via
// snapshot compaction), and disappears on the terminal transition.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)

	j := &Job{Kind: KindWorkload, Workload: "example1", EpochEvents: 1000}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	// No checkpoint before the job runs, and none accepted either.
	if err := s.SaveLeasedCheckpoint(j.ID, s.FenceToken(), &JobCheckpoint{JobID: j.ID, Epoch: 1, Data: []byte("x")}); err == nil {
		t.Fatal("checkpoint accepted for a queued job")
	}
	lease := claim(t, s, j.ID)
	for e := uint64(1); e <= 3; e++ {
		ck := &JobCheckpoint{
			JobID: j.ID, Epoch: e, Events: e * 1000, Attempt: 1,
			Data: []byte(fmt.Sprintf("ckpt-%d", e)),
		}
		if err := s.SaveLeasedCheckpoint(j.ID, lease.Token, ck); err != nil {
			t.Fatal(err)
		}
	}
	got := s.LoadCheckpoint(j.ID)
	if got == nil || got.Epoch != 3 || !bytes.Equal(got.Data, []byte("ckpt-3")) {
		t.Fatalf("latest checkpoint = %+v", got)
	}

	// Crash-reopen: the committed checkpoint replays from the WAL and
	// the re-enqueued job resumes from it.
	s2, recovered := testOpen(t, dir)
	if len(recovered) != 1 || recovered[0].ID != j.ID {
		t.Fatalf("recovered = %+v", recovered)
	}
	got = s2.LoadCheckpoint(j.ID)
	if got == nil || got.Epoch != 3 || got.Events != 3000 || !bytes.Equal(got.Data, []byte("ckpt-3")) {
		t.Fatalf("checkpoint after crash = %+v", got)
	}

	// Compaction carries it into the snapshot; a further reopen reads
	// it back without any WAL records.
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s3, _ := testOpen(t, dir)
	if got = s3.LoadCheckpoint(j.ID); got == nil || got.Epoch != 3 {
		t.Fatalf("checkpoint after snapshot reopen = %+v", got)
	}

	// The terminal transition clears it, durably.
	lease = claim(t, s3, j.ID)
	if err := s3.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); err != nil {
		t.Fatal(err)
	}
	if got = s3.LoadCheckpoint(j.ID); got != nil {
		t.Fatalf("checkpoint survived completion: %+v", got)
	}
	s4, _ := testOpen(t, dir)
	defer s4.Close()
	if got = s4.LoadCheckpoint(j.ID); got != nil {
		t.Fatalf("checkpoint resurrected by replay: %+v", got)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointOversizeSkipped: a checkpoint too large for one WAL
// record is skipped (not an error), keeping the previous committed
// epoch as the resume point.
func TestCheckpointOversizeSkipped(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	j := &Job{Kind: KindWorkload, Workload: "example1", EpochEvents: 10}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	lease := claim(t, s, j.ID)
	if err := s.SaveLeasedCheckpoint(j.ID, lease.Token, &JobCheckpoint{JobID: j.ID, Epoch: 1, Data: []byte("small")}); err != nil {
		t.Fatal(err)
	}
	huge := &JobCheckpoint{JobID: j.ID, Epoch: 2, Data: make([]byte, MaxWALRecord+1)}
	if err := s.SaveLeasedCheckpoint(j.ID, lease.Token, huge); err != nil {
		t.Fatalf("oversize checkpoint should skip, not fail: %v", err)
	}
	if got := s.LoadCheckpoint(j.ID); got == nil || got.Epoch != 1 {
		t.Fatalf("resume point after oversize skip = %+v", got)
	}
}

// TestNoteCacheHitOnTerminalJob: cache-hit trace events land on a
// succeeded job and survive a reopen.
func TestNoteCacheHitOnTerminalJob(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)
	j := &Job{Kind: KindWorkload, Workload: "example1", CacheKey: "k1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	lease := claim(t, s, j.ID)
	if err := s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); err != nil {
		t.Fatal(err)
	}
	s.Note(j.ID, TraceEvent{Event: TraceCacheHit, Detail: "duplicate submission job-99"})
	got := s.Get(j.ID)
	var hit *TraceEvent
	for i := range got.Trace {
		if got.Trace[i].Event == TraceCacheHit {
			hit = &got.Trace[i]
		}
	}
	if hit == nil || hit.Detail != "duplicate submission job-99" {
		t.Fatalf("trace after cache hit = %+v", got.Trace)
	}

	// Unsynced trace records still survive a clean reopen.
	s2, _ := testOpen(t, dir)
	defer s2.Close()
	got = s2.Get(j.ID)
	found := false
	for _, ev := range got.Trace {
		found = found || ev.Event == TraceCacheHit
	}
	if !found {
		t.Fatalf("cache-hit trace lost across reopen: %+v", got.Trace)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestListPage: offset/limit pagination over the newest-first order,
// with the total reported for the full filtered set.
func TestListPage(t *testing.T) {
	s, _ := testOpen(t, t.TempDir())
	defer s.Close()
	var ids []string
	for i := 0; i < 7; i++ {
		j := &Job{Kind: KindWorkload, Workload: "example1"}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Make two of them succeed so the state filter has something to do.
	for _, id := range ids[:2] {
		lease := claim(t, s, id)
		if err := s.CompleteLease(id, lease.Token, &Result{Status: "ok"}, nil); err != nil {
			t.Fatal(err)
		}
	}

	page, total := s.ListPage("", 2, 3)
	if total != 7 || len(page) != 3 {
		t.Fatalf("page(offset=2,limit=3): total=%d len=%d", total, len(page))
	}
	// Newest first: offset 2 of 7 jobs lands on the 5th submission.
	if page[0].ID != ids[4] || page[2].ID != ids[2] {
		t.Fatalf("page ids = %s..%s, want %s..%s", page[0].ID, page[2].ID, ids[4], ids[2])
	}
	if page, total = s.ListPage(StateSucceeded, 0, 10); total != 2 || len(page) != 2 {
		t.Fatalf("page(succeeded): total=%d len=%d", total, len(page))
	}
	if page, total = s.ListPage("", 10, 3); total != 7 || len(page) != 0 {
		t.Fatalf("page past the end: total=%d len=%d", total, len(page))
	}
	if page, total = s.ListPage("", 0, 0); total != 7 || len(page) != 7 {
		t.Fatalf("page(unlimited): total=%d len=%d", total, len(page))
	}
}

// TestCheckpointClearedOnLeasedTerminal: every terminal transition of a
// leased job drops its checkpoint — a remote worker's completion and a
// quarantine alike — and the drop holds across a snapshot and reopen.
func TestCheckpointClearedOnLeasedTerminal(t *testing.T) {
	for _, end := range []string{"complete", "quarantine"} {
		t.Run(end, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := testOpen(t, dir)
			j := &Job{Kind: KindWorkload, Workload: "example1", EpochEvents: 1000}
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
			lease, _, err := s.AcquireLease("w1", time.Minute, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SaveLeasedCheckpoint(j.ID, lease.Token, &JobCheckpoint{Epoch: 1, Events: 1000, Data: []byte("ckpt-1")}); err != nil {
				t.Fatal(err)
			}
			if s.LoadCheckpoint(j.ID) == nil {
				t.Fatal("checkpoint not committed")
			}
			if end == "complete" {
				err = s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil)
			} else {
				_, err = leasePool(t, s, 3).Fail(j.ID, lease.Token, &JobError{Message: "bad program", Terminal: true}, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if ck := s.LoadCheckpoint(j.ID); ck != nil {
				t.Fatalf("checkpoint survived %s: %+v", end, ck)
			}
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s2, _ := testOpen(t, dir)
			defer s2.Close()
			if ck := s2.LoadCheckpoint(j.ID); ck != nil {
				t.Fatalf("checkpoint resurrected after snapshot and reopen: %+v", ck)
			}
		})
	}
}

// TestSnapshotDropsDeadCheckpoints: a snapshot that still carries the
// checkpoint of a terminal job (written before terminal transitions
// cleared it) loses it on open, by the same rule WAL replay applies.
func TestSnapshotDropsDeadCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)
	j := &Job{Kind: KindWorkload, Workload: "example1", EpochEvents: 1000}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	lease := claim(t, s, j.ID)
	if err := s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); err != nil {
		t.Fatal(err)
	}
	// Plant the leak the way older stores left it, then compact it
	// into the snapshot.
	s.mu.Lock()
	s.ckpts[j.ID] = &JobCheckpoint{JobID: j.ID, Epoch: 1, Data: []byte("dead")}
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := testOpen(t, dir)
	defer s2.Close()
	if ck := s2.LoadCheckpoint(j.ID); ck != nil {
		t.Fatalf("dead checkpoint loaded from the snapshot: %+v", ck)
	}
}
