package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/faultinject"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs/flight"
	"polyprof/internal/transform"
)

// TestAnomalyDecision: each attempt outcome gives exactly one trigger
// reason (or none) and the budget/degrade ring events it implies.
func TestAnomalyDecision(t *testing.T) {
	oracle := &transform.OracleError{Program: "p", Nest: "n", Variant: "interchange", Detail: "1 memory words differ"}
	steps := &budget.Error{Resource: budget.ResourceSteps, Stage: "vm", Limit: 10, Used: 11}
	wall := &budget.Error{Resource: budget.ResourceWall, Stage: "vm"}
	cases := []struct {
		name    string
		err     error
		budgets []string
		reason  string
		stage   string
		events  []string // kind/name of each ring event, in order
	}{
		{name: "stage panic", err: &core.StagePanic{Stage: "pass2-ddg", Value: errors.New("boom")},
			reason: "stage-panic", stage: "pass2-ddg"},
		// A budget error carried by a contained panic is still one
		// stage-panic, not a second budget-exhausted bundle.
		{name: "stage panic over budget", err: &core.StagePanic{Stage: "fold-finish", Value: steps},
			reason: "stage-panic", stage: "fold-finish"},
		{name: "wrapped oracle error", err: fmt.Errorf("jobexec: %w", oracle),
			reason: "optimize-verify-failed", stage: "transform"},
		{name: "hard budget", err: steps, reason: "budget-exhausted", events: []string{"budget/vm-steps"}},
		{name: "timeout", err: fmt.Errorf("pass 2: %w", wall), reason: "budget-exhausted", events: []string{"budget/wall-clock"}},
		{name: "canceled", err: &budget.Error{Resource: budget.ResourceCanceled, Stage: "vm"}},
		{name: "plain error", err: errors.New("program rejected")},
		{name: "nil", budgets: []string{budget.ResourceShadowBytes, budget.ResourceDDGEdges},
			events: []string{"degrade/shadow-bytes", "degrade/ddg-edges"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := outcome{kind: "job", name: "job:example1#1", trace: "tr-1", job: "job-1",
				status: "x", err: tc.err, budgets: tc.budgets}
			evs, reason, info := anomaly(o)
			if reason != tc.reason {
				t.Fatalf("reason = %q, want %q", reason, tc.reason)
			}
			var got []string
			for _, ev := range evs {
				got = append(got, ev.Kind+"/"+ev.Name)
				if ev.Trace != "tr-1" {
					t.Errorf("event %s/%s has trace %q, want tr-1", ev.Kind, ev.Name, ev.Trace)
				}
			}
			if !reflect.DeepEqual(got, tc.events) {
				t.Fatalf("events = %v, want %v", got, tc.events)
			}
			if reason == "" {
				return
			}
			if info.Trace != "tr-1" || info.Job != "job-1" || info.Stage != tc.stage || info.Detail == "" {
				t.Fatalf("trigger info = %+v, want trace tr-1, job job-1, stage %q and a detail", info, tc.stage)
			}
			if tc.reason == "optimize-verify-failed" {
				want := map[string]string{"program": "p", "nest": "n", "variant": "interchange"}
				if !reflect.DeepEqual(info.Extra, want) {
					t.Fatalf("oracle extra = %v, want %v", info.Extra, want)
				}
			}
		})
	}
}

// stagePanicBundles returns the stage-panic bundles in dir.  The
// attempt's finish writes them before the response is sent or the job
// turns terminal, so there is nothing to wait for.
func stagePanicBundles(t *testing.T, dir string) []flight.BundleInfo {
	t.Helper()
	infos, err := flight.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []flight.BundleInfo
	for _, in := range infos {
		if in.Reason == "stage-panic" {
			out = append(out, in)
		}
	}
	return out
}

// TestStagePanicBundleCarriesRequestID: a stage panic in a synchronous
// profile request leaves one stage-panic bundle under the client's
// X-Request-ID.
func TestStagePanicBundleCarriesRequestID(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts, dir := newFlightServer(t, Options{})
	if err := faultinject.ArmString("vm.step=panic:chaos:1"); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/profile?workload=example1", nil)
	req.Header.Set("X-Request-ID", "incident-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 {
		t.Fatalf("faulted profile = %d, want an error", resp.StatusCode)
	}
	got := stagePanicBundles(t, dir)
	if len(got) != 1 || got[0].Trace != "incident-42" {
		t.Fatalf("stage-panic bundles = %+v, want one with trace incident-42", got)
	}
}

// TestStagePanicBundleCarriesSpans: an attempt's finished spans enter
// the ring before its trigger, so the stage-panic bundle holds the
// request's root span and the failing stage's span with its error.
func TestStagePanicBundleCarriesSpans(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts, dir := newFlightServer(t, Options{})
	if err := faultinject.ArmString("vm.step=panic:chaos:1"); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/profile?workload=example1", nil)
	req.Header.Set("X-Request-ID", "incident-43")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := stagePanicBundles(t, dir)
	if len(got) != 1 {
		t.Fatalf("stage-panic bundles = %+v, want one", got)
	}
	b, err := flight.ReadBundle(dir, got[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]string{} // span name -> detail
	assertOldestFirst(t, b)
	for _, ev := range b.Events {
		if ev.Kind == "span" && ev.Trace == "incident-43" {
			spans[ev.Name] = ev.Detail
		}
	}
	if _, ok := spans["request:example1"]; !ok {
		t.Fatalf("bundle holds no root span: %v", spans)
	}
	if d, ok := spans[b.Stage]; !ok || !strings.HasPrefix(d, "ERROR: ") {
		t.Fatalf("bundle span of failing stage %q = %q (present %v), want its error: %v", b.Stage, d, ok, spans)
	}
}

// TestOptimizePanicBundleCarriesJobIDs: a panic in an optimize job's
// transform stage leaves one stage-panic bundle naming the job and its
// trace.
func TestOptimizePanicBundleCarriesJobIDs(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	_, ts, dir := newFlightServer(t, Options{})
	if err := faultinject.ArmString("transform.apply=panic:chaos:1"); err != nil {
		t.Fatal(err)
	}
	resp, body := postJob(t, ts, "workload=backprop&optimize=1&nocache=1", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sum jobstore.JobSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if j := waitJob(t, ts, sum.ID); j.State != jobstore.StateFailed {
		t.Fatalf("job state = %s, want failed", j.State)
	}
	got := stagePanicBundles(t, dir)
	if len(got) != 1 || got[0].Job != sum.ID || got[0].Trace != sum.TraceID || got[0].Trace == "" {
		t.Fatalf("stage-panic bundles = %+v, want one for job %s trace %s", got, sum.ID, sum.TraceID)
	}
	// The attempt's stage notes entered the ring as the stages began,
	// its spans only at its end; the bundle lists both in time order.
	b, err := flight.ReadBundle(dir, got[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	assertOldestFirst(t, b)
}

// assertOldestFirst fails unless b's events are non-decreasing in At.
func assertOldestFirst(t *testing.T, b *flight.Bundle) {
	t.Helper()
	for i := 1; i < len(b.Events); i++ {
		if prev, ev := b.Events[i-1], b.Events[i]; ev.At.Before(prev.At) {
			t.Fatalf("bundle event %d (%s %s at %v) precedes event %d (%s %s at %v): not oldest-first",
				i, ev.Kind, ev.Name, ev.At, i-1, prev.Kind, prev.Name, prev.At)
		}
	}
}
