package jobstore

import (
	"context"
	"fmt"
	"testing"
	"time"

	"polyprof/internal/faultinject"
	"polyprof/internal/obs"
)

// deterministicReport is what the chaos runner "computes" for a job:
// re-running a job after a crash must reproduce it bit for bit, which
// is exactly the property the real pipeline has.
func deterministicReport(j *Job) string {
	return fmt.Sprintf(`{"workload":%q,"len":%d}`, j.Workload, len(j.Workload))
}

func chaosRunner(_ context.Context, job *Job, _ *Lease) (*Result, error) {
	return &Result{Status: "ok", Report: []byte(deterministicReport(job))}, nil
}

// chaosSubmit submits one job, absorbing injected errors and panics.
// It returns the job id when — and only when — the submit was
// acknowledged; injected failures return "".
func chaosSubmit(t *testing.T, s *Store, p *Pool) (id string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Logf("submit panicked (injected): %v", r)
			id = ""
		}
	}()
	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Logf("submit rejected (injected): %v", err)
		return ""
	}
	p.Wake(time.Time{})
	return j.ID
}

// TestChaosEveryJobstoreFaultPoint is the crash-recovery proof the
// issue demands: every jobstore fault point is armed with a fatal mode
// while a store+pool runs real traffic, the "process" then dies without
// a clean close, and after reopening
//
//   - every acknowledged job still exists,
//   - every acknowledged job eventually reaches `succeeded` exactly
//     once (terminal states never regress ⇒ no double-completion), and
//   - its persisted report is identical to an uninterrupted run's.
func TestChaosEveryJobstoreFaultPoint(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	dir := t.TempDir()
	acked := map[string]bool{}

	specs := []string{}
	for _, point := range []string{"jobstore.wal.append", "jobstore.wal.sync", "jobstore.snapshot", "jobstore.replay"} {
		for _, mode := range []string{"error", "panic"} {
			specs = append(specs, fmt.Sprintf("%s=%s:chaos:1", point, mode))
		}
	}

	open := func() (*Store, []*Job) {
		s, recovered, err := Open(dir, Options{SnapshotEvery: 6, Registry: obs.NewRegistry(), Logf: t.Logf})
		if err != nil {
			// An injected replay fault fails the open once and then
			// self-disarms; the retry must succeed — the operator's
			// restart loop.
			t.Logf("open failed (injected): %v; retrying", err)
			s, recovered, err = Open(dir, Options{SnapshotEvery: 6, Registry: obs.NewRegistry(), Logf: t.Logf})
			if err != nil {
				t.Fatalf("reopen after injected replay fault: %v", err)
			}
		}
		return s, recovered
	}

	for round, spec := range specs {
		// The replay fault must be armed BEFORE Open to fire at all.
		preArm := round%2 == 0
		if preArm {
			if err := faultinject.ArmString(spec); err != nil {
				t.Fatal(err)
			}
		}
		s, _ := open()
		pool := NewPool(s, chaosRunner, PoolOptions{
			Workers: 2, MaxAttempts: 10,
			BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
			Registry: obs.NewRegistry(), Logf: t.Logf,
		})
		pool.Start()

		if id := chaosSubmit(t, s, pool); id != "" {
			acked[id] = true
		}
		if !preArm {
			if err := faultinject.ArmString(spec); err != nil {
				t.Fatal(err)
			}
		}
		// Traffic across the armed point: submits, executions, and a
		// forced compaction all cross WAL boundaries.
		for i := 0; i < 4; i++ {
			if id := chaosSubmit(t, s, pool); id != "" {
				acked[id] = true
			}
		}
		func() {
			defer func() { recover() }()
			if err := s.Snapshot(); err != nil {
				t.Logf("snapshot failed (injected): %v", err)
			}
		}()
		time.Sleep(5 * time.Millisecond)
		pool.Stop()
		// Crash: no s.Close() — the WAL is left exactly as the last
		// fsync (or injected failure) left it.
		faultinject.DisarmAll()
	}

	// Final recovery: reopen cleanly and drain everything.
	s, _ := open()
	defer s.Close()
	pool := NewPool(s, chaosRunner, PoolOptions{
		Workers: 2, MaxAttempts: 10,
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
		Registry: obs.NewRegistry(), Logf: t.Logf,
	})
	pool.Start()
	defer pool.Stop()

	if len(acked) == 0 {
		t.Fatal("chaos run acknowledged no jobs at all")
	}
	for id := range acked {
		j := waitTerminal(t, s, id)
		if j.State != StateSucceeded {
			t.Fatalf("acknowledged job %s ended %s (%+v)", id, j.State, j.Error)
		}
		if got, want := string(j.Result.Report), deterministicReport(j); got != want {
			t.Fatalf("job %s report diverged after recovery:\n got %s\nwant %s", id, got, want)
		}
	}
	// No phantom jobs: everything listed traces back to an acknowledged
	// submit or was an unacknowledged submit that legitimately survived
	// (written but not fsynced when the fault hit) — either way every
	// listed job must be internally consistent.
	all, _ := s.ListPage("", 0, 0)
	for _, sum := range all {
		if sum.State == StateSucceeded && sum.Attempts == 0 {
			t.Fatalf("job %s succeeded with zero attempts", sum.ID)
		}
	}
}

// TestChaosSnapshotFaultDoesNotLoseRecords: a failing compaction leaves
// the WAL authoritative — nothing is lost even though snapshotting
// errored through the whole run.
func TestChaosSnapshotFaultDoesNotLoseRecords(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SnapshotEvery: 2, Registry: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		// Re-arm before every append so each automatic compaction
		// attempt fails.
		if err := faultinject.ArmString("jobstore.snapshot=error:full-disk:1"); err != nil {
			t.Fatal(err)
		}
		j := &Job{Kind: KindWorkload, Workload: "example1"}
		if err := s.Submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}
	faultinject.DisarmAll()
	// Crash without Close.
	s2, recovered := testOpen(t, dir)
	defer s2.Close()
	if len(recovered) != len(ids) {
		t.Fatalf("recovered %d jobs, want %d", len(recovered), len(ids))
	}
	for _, id := range ids {
		if j := s2.Get(id); j == nil || j.State != StateQueued {
			t.Fatalf("job %s after failed compactions = %+v", id, j)
		}
	}
}
