package jobstore

import (
	"testing"

	"polyprof/internal/obs"
)

// attemptRegistry returns an enabled attempt registry with its root
// span open, the way the job runners build one: stage spans started
// under the returned scope are what Get reports as live progress.
func attemptRegistry(t *testing.T) (*obs.Registry, obs.Scope) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	root := reg.Scope().StartSpan("job:example1#1")
	t.Cleanup(func() { root.End() })
	return reg, reg.Scope().WithSpan(root)
}

// TestProgressLifecycle: live progress is visible only while the job
// runs with its attempt registry attached and a stage span open,
// events are monotone within a stage, and the view is volatile — a
// store restart clears it instead of resurrecting stale numbers from
// the WAL.
func TestProgressLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, _ := testOpen(t, dir)

	j := &Job{Kind: KindWorkload, Workload: "example1"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if p := s.Get(j.ID).Progress; p != nil {
		t.Fatalf("queued job has progress %+v", p)
	}

	claim(t, s, j.ID)
	// Running but no registry attached yet: still no progress.
	if p := s.Get(j.ID).Progress; p != nil {
		t.Fatalf("untracked running job has progress %+v", p)
	}

	reg, sc := attemptRegistry(t)
	s.AttachProgress(j.ID, reg)
	// Attached but no stage span started yet: nothing to report.
	if p := s.Get(j.ID).Progress; p != nil {
		t.Fatalf("tracked job before its first stage has progress %+v", p)
	}
	pass2 := sc.StartSpanTotal("pass2-ddg", 1000)
	var last uint64
	for _, n := range []uint64{10, 250, 999} {
		pass2.SetEvents(n)
		p := s.Get(j.ID).Progress
		if p == nil {
			t.Fatal("running tracked job has no progress")
		}
		if p.Stage != "pass2-ddg" || p.Total != 1000 {
			t.Fatalf("progress = %+v", p)
		}
		if p.Events != n || p.Events < last {
			t.Fatalf("events = %d after SetEvents(%d), last %d", p.Events, n, last)
		}
		last = p.Events
	}
	// A stage change resets the counter but keeps reporting.
	pass2.End()
	fold := sc.StartSpan("fold-finish")
	if p := s.Get(j.ID).Progress; p == nil || p.Stage != "fold-finish" || p.Events != 0 || p.Total != 0 {
		t.Fatalf("post-stage-change progress = %+v", p)
	}
	fold.End()

	// Restart the store mid-run (a crash): the recovered job must come
	// back without any progress — attached registries are in-memory only.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, recovered := testOpen(t, dir)
	defer s2.Close()
	if len(recovered) != 1 || recovered[0].ID != j.ID {
		t.Fatalf("recovered = %+v", recovered)
	}
	got := s2.Get(j.ID)
	if got == nil {
		t.Fatal("job lost across restart")
	}
	if got.Progress != nil {
		t.Fatalf("restart resurrected progress %+v", got.Progress)
	}

	// A fresh attempt attaches a fresh registry and reports again from
	// zero; completing the job ends the live view for good.
	lease := claim(t, s2, j.ID)
	reg2, sc2 := attemptRegistry(t)
	s2.AttachProgress(j.ID, reg2)
	pass1 := sc2.StartSpan("pass1-structure")
	defer pass1.End()
	if p := s2.Get(j.ID).Progress; p == nil || p.Stage != "pass1-structure" || p.Events != 0 {
		t.Fatalf("second-attempt progress = %+v", p)
	}
	if err := s2.CompleteLease(j.ID, lease.Token, &Result{}, nil); err != nil {
		t.Fatal(err)
	}
	if p := s2.Get(j.ID).Progress; p != nil {
		t.Fatalf("terminal job has progress %+v", p)
	}
	s2.DetachProgress(j.ID)
	if p := s2.Get(j.ID).Progress; p != nil {
		t.Fatalf("detached terminal job has progress %+v", p)
	}
}
