package jobstore

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDeleteTerminalOnly: queued and running jobs refuse deletion with
// ErrJobActive; terminal jobs delete; unknown ids report ErrUnknownJob.
func TestDeleteTerminalOnly(t *testing.T) {
	s, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(j.ID); !errors.Is(err, ErrJobActive) {
		t.Fatalf("delete queued = %v, want ErrJobActive", err)
	}
	lease := claim(t, s, j.ID)
	if err := s.Delete(j.ID); !errors.Is(err, ErrJobActive) {
		t.Fatalf("delete running = %v, want ErrJobActive", err)
	}
	if err := s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(j.ID); err != nil {
		t.Fatalf("delete succeeded job: %v", err)
	}
	if got := s.Get(j.ID); got != nil {
		t.Fatalf("deleted job still served: %+v", got)
	}
	if _, got := s.ListPage("", 0, 0); got != 0 {
		t.Fatalf("deleted job still listed: %d entries", got)
	}
	if err := s.Delete(j.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("delete twice = %v, want ErrUnknownJob", err)
	}
	if err := s.Delete("job-999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("delete unknown = %v, want ErrUnknownJob", err)
	}
}

// TestDeleteSurvivesReplay: a WAL-logged deletion holds across both
// recovery paths — a crash before compaction (raw WAL replay of the
// delete record) and a clean close (snapshot without the job).
func TestDeleteSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keep := &Job{Kind: KindWorkload, Workload: "example2"}
	gone := &Job{Kind: KindWorkload, Workload: "example1"}
	for _, j := range []*Job{keep, gone} {
		if err := s1.Submit(j); err != nil {
			t.Fatal(err)
		}
		lease := claim(t, s1, j.ID)
		if err := s1.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Delete(gone.ID); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a crash so the delete record is replayed from
	// the WAL rather than folded into a snapshot.
	s2, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("recovered %d jobs, want 0", len(recovered))
	}
	if s2.Get(gone.ID) != nil {
		t.Fatal("deleted job resurrected by WAL replay")
	}
	if s2.Get(keep.ID) == nil {
		t.Fatal("undeleted job lost")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean close compacted; a third open serves from the snapshot.
	s3, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Get(gone.ID) != nil {
		t.Fatal("deleted job resurrected by snapshot")
	}
	if s3.Get(keep.ID) == nil {
		t.Fatal("undeleted job lost after compaction")
	}
}

// TestExpireBefore: the TTL sweep deletes only terminal jobs past the
// cutoff, counts them, and leaves active and recent jobs alone.
func TestExpireBefore(t *testing.T) {
	s, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mk := func(finish bool) *Job {
		j := &Job{Kind: KindWorkload, Workload: "example1"}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		if finish {
			lease := claim(t, s, j.ID)
			if err := s.CompleteLease(j.ID, lease.Token, &Result{Status: "ok"}, nil); err != nil {
				t.Fatal(err)
			}
		}
		return j
	}
	old := mk(true)
	fresh := mk(true)
	queued := mk(false)

	// Age the first job past the cutoff by rewriting its finish time
	// (the store owns the clock otherwise).
	s.mu.Lock()
	s.jobs[old.ID].FinishedAt = time.Now().UTC().Add(-time.Hour)
	s.mu.Unlock()

	n, err := s.ExpireBefore(time.Now().UTC().Add(-time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("expired %d jobs, want 1", n)
	}
	if s.Get(old.ID) != nil {
		t.Fatal("aged-out job survived the sweep")
	}
	if s.Get(fresh.ID) == nil || s.Get(queued.ID) == nil {
		t.Fatal("sweep deleted a fresh or active job")
	}
}

// TestPoolTTLSweeper: a pool with a TTL collects aged-out terminal
// jobs without touching queued work.
func TestPoolTTLSweeper(t *testing.T) {
	s, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(done); err != nil {
		t.Fatal(err)
	}
	lease := claim(t, s, done.ID)
	if err := s.CompleteLease(done.ID, lease.Token, &Result{Status: "ok"}, nil); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.jobs[done.ID].FinishedAt = time.Now().UTC().Add(-time.Hour)
	s.mu.Unlock()

	p := NewPool(s, func(ctx context.Context, job *Job, _ *Lease) (*Result, error) {
		return &Result{Status: "ok"}, nil
	}, PoolOptions{TTL: time.Minute})
	p.Start()
	defer p.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Get(done.ID) == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("TTL sweeper never collected the aged-out job")
}
