package jobexec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"polyprof/internal/budget"
	"polyprof/internal/jobrec"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
)

// memCheckpoints is an in-memory CheckpointStore: Load offers load (if
// set), Save records every committed epoch.
type memCheckpoints struct {
	load   []byte
	epochs []uint64
	data   [][]byte
}

func (m *memCheckpoints) Save(epoch, events uint64, data []byte) error {
	m.epochs = append(m.epochs, epoch)
	m.data = append(m.data, data)
	return nil
}

func (m *memCheckpoints) Load() ([]byte, bool) { return m.load, m.load != nil }

// streamed runs one streaming attempt of example1 against ck and
// returns its result and the resume events it reported.
func streamed(t *testing.T, ck *memCheckpoints) (*jobstore.Result, []jobstore.TraceEvent) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	job := &jobstore.Job{ID: "job-1", Kind: jobstore.KindWorkload, Workload: "example1", EpochEvents: 20}
	var resumes []jobstore.TraceEvent
	res, err := Run(context.Background(), job, "job:example1#1", Options{
		Registry:    reg,
		Checkpoints: ck,
		OnResume:    func(ev jobstore.TraceEvent) { resumes = append(resumes, ev) },
	})
	if err != nil || res.Status != "ok" {
		t.Fatalf("attempt = %s, %v", res.Status, err)
	}
	return res, resumes
}

// TestCorruptCheckpointStartsFromZero: an attempt whose committed
// checkpoint does not decode, or was written by a builder with an older
// state format, reports resume-rejected, runs from event
// zero — committing the same epochs as an attempt with no checkpoint —
// and renders the same report bytes.  A valid checkpoint resumes past
// it and reports checkpoint-resume.
func TestCorruptCheckpointStartsFromZero(t *testing.T) {
	fresh := &memCheckpoints{}
	want, resumes := streamed(t, fresh)
	if len(resumes) != 0 {
		t.Fatalf("attempt without a checkpoint reported %+v", resumes)
	}
	if len(fresh.epochs) < 2 || fresh.epochs[0] != 1 {
		t.Fatalf("unresumed attempt committed epochs %v, want 1, 2, ...", fresh.epochs)
	}

	// A checkpoint an older binary wrote decodes as JSON, but its
	// dependence state folded every bundle (no format field), so it is
	// rejected the same way.
	var older, ddgState map[string]json.RawMessage
	if err := json.Unmarshal(fresh.data[0], &older); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(older["ddg"], &ddgState); err != nil {
		t.Fatal(err)
	}
	delete(ddgState, "format")
	var err error
	if older["ddg"], err = json.Marshal(ddgState); err != nil {
		t.Fatal(err)
	}
	olderData, err := json.Marshal(older)
	if err != nil {
		t.Fatal(err)
	}
	for what, data := range map[string][]byte{"corrupt": []byte("not a checkpoint"), "older": olderData} {
		rejected := &memCheckpoints{load: data}
		got, resumes := streamed(t, rejected)
		if len(resumes) != 1 || resumes[0].Event != jobstore.TraceResumeRejected ||
			!strings.HasSuffix(resumes[0].Detail, "starting from event zero") {
			t.Fatalf("%s: resume events = %+v, want one resume-rejected", what, resumes)
		}
		if !slices.Equal(rejected.epochs, fresh.epochs) {
			t.Fatalf("%s: rejected resume committed epochs %v, want %v from event zero", what, rejected.epochs, fresh.epochs)
		}
		if !bytes.Equal(got.Report, want.Report) {
			t.Fatalf("%s: report after a rejected resume differs from the unresumed run", what)
		}
	}

	resumed := &memCheckpoints{load: fresh.data[0]}
	got, resumes := streamed(t, resumed)
	if len(resumes) != 1 || resumes[0].Event != jobstore.TraceResume ||
		!strings.HasPrefix(resumes[0].Detail, "resumed from committed epoch 1 ") {
		t.Fatalf("resume events = %+v, want one checkpoint-resume from epoch 1", resumes)
	}
	if len(resumed.epochs) == 0 || resumed.epochs[0] != 2 {
		t.Fatalf("resumed attempt committed epochs %v, want 2, ...", resumed.epochs)
	}
	if !bytes.Equal(got.Report, want.Report) {
		t.Fatal("report after a resume differs from the unresumed run")
	}
}

// TestRunCarriesVerdict: a failed attempt's error carries its verdict
// — status, trigger, wall time — over the pipeline error, which
// errors.As still reaches.
func TestRunCarriesVerdict(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	job := &jobstore.Job{ID: "job-1", Kind: jobstore.KindWorkload, Workload: "example1"}
	res, err := Run(context.Background(), job, "job:example1#1", Options{
		Registry: reg, Limits: budget.Limits{MaxSteps: 10},
	})
	var f *jobrec.Failure
	if !errors.As(err, &f) {
		t.Fatalf("Run error %v carries no verdict", err)
	}
	if _, ok := budget.AsError(err); !ok {
		t.Fatalf("Run error %v hides its budget error", err)
	}
	if f.Status != "budget" || res.Status != "budget" || f.Reason != "budget-exhausted" ||
		f.WallNS <= 0 || f.WallNS != res.WallNS {
		t.Fatalf("verdict = %+v, result status %s wall %d", f.Verdict, res.Status, res.WallNS)
	}
	if _, err := Run(context.Background(), job, "job:example1#2", Options{Registry: reg}); err != nil {
		t.Fatalf("unlimited attempt failed: %v", err)
	}
}

// TestJudgeStatus: budget aborts split into timeout, canceled and
// budget; anything else is a plain error.
func TestJudgeStatus(t *testing.T) {
	for _, tc := range []struct {
		err            error
		status, reason string
	}{
		{&budget.Error{Resource: budget.ResourceWall}, "timeout", "budget-exhausted"},
		{&budget.Error{Resource: budget.ResourceCanceled}, "canceled", ""},
		{&budget.Error{Resource: budget.ResourceSteps}, "budget", "budget-exhausted"},
		{errors.New("program rejected"), "error", ""},
	} {
		if v := Judge(tc.err); v.Status != tc.status || v.Reason != tc.reason {
			t.Errorf("Judge(%v) = %+v, want status %s reason %q", tc.err, v, tc.status, tc.reason)
		}
	}
}
