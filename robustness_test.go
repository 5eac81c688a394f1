package polyprof_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"polyprof"
	"polyprof/internal/core"
	"polyprof/internal/faultinject"
)

// TestProfileCtxCanceled: a canceled context aborts the pipeline with
// a classified budget error instead of running to completion.
func TestProfileCtxCanceled(t *testing.T) {
	prog, err := polyprof.Workload("backprop")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = polyprof.ProfileWith(ctx, prog, polyprof.ProfileOptions{})
	var be *polyprof.BudgetError
	if !errors.As(err, &be) || !be.Canceled() {
		t.Fatalf("want canceled budget error, got %v", err)
	}
}

// TestOptimizeWithContainsTransformPanic: a panic inside the transform
// stage is contained by the stage itself — OptimizeWith returns a
// *core.StagePanic naming the stage instead of unwinding the caller.
func TestOptimizeWithContainsTransformPanic(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	prog, err := polyprof.Workload("backprop")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.ArmString("transform.apply=panic:boom:1"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("OptimizeWith panicked: %v", r)
		}
	}()
	_, _, err = polyprof.OptimizeWith(context.Background(), prog, polyprof.ProfileOptions{}, 0)
	var sp *core.StagePanic
	if !errors.As(err, &sp) || sp.Stage != "transform" {
		t.Fatalf("OptimizeWith under an apply panic = %v, want a transform *core.StagePanic", err)
	}
}

// TestProfileCtxStepLimit: a hard step budget aborts with the vm-steps
// resource named in the error.
func TestProfileCtxStepLimit(t *testing.T) {
	prog, err := polyprof.Workload("backprop")
	if err != nil {
		t.Fatal(err)
	}
	_, err = polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{Limits: polyprof.BudgetLimits{MaxSteps: 100}})
	var be *polyprof.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want budget error, got %v", err)
	}
	if be.Resource != "vm-steps" {
		t.Fatalf("resource = %q, want vm-steps", be.Resource)
	}
}

// TestProfileCtxWallLimit: an immediate wall-clock limit aborts with a
// timeout-classified error.
func TestProfileCtxWallLimit(t *testing.T) {
	prog, err := polyprof.Workload("backprop")
	if err != nil {
		t.Fatal(err)
	}
	_, err = polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{Limits: polyprof.BudgetLimits{Wall: time.Nanosecond}})
	var be *polyprof.BudgetError
	if !errors.As(err, &be) || !be.Timeout() {
		t.Fatalf("want wall-clock budget error, got %v", err)
	}
}

// TestDegradedReportFixture profiles a Rodinia workload under a shadow
// budget small enough to degrade it and validates the resulting JSON
// report end-to-end: schema-valid, marked degraded, with the tripped
// budget and coarsened regions named.  With POLYPROF_DEGJSON=1 the
// report is written to DEGRADED_report.json (kept as a CI artifact
// next to BENCH_overhead.json).
func TestDegradedReportFixture(t *testing.T) {
	prog, err := polyprof.Workload("nn")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := polyprof.ProfileWith(context.Background(), prog,
		polyprof.ProfileOptions{Limits: polyprof.BudgetLimits{MaxShadowBytes: 4096}})
	if err != nil {
		t.Fatalf("degrading limits must not fail the run: %v", err)
	}
	cm := polyprof.DefaultCostModel()
	data, err := rep.JSON(&cm)
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Program     string  `json:"program"`
		TotalOps    uint64  `json:"total_ops"`
		PctAffine   float64 `json:"pct_affine"`
		Degraded    bool    `json:"degraded"`
		Degradation *struct {
			Budgets []string `json:"budgets"`
			Regions []struct {
				Lo      int64    `json:"lo"`
				Hi      int64    `json:"hi"`
				Globals []string `json:"globals"`
			} `json:"regions"`
			CoarseDeps   int    `json:"coarse_deps"`
			CoarseEvents uint64 `json:"coarse_events"`
		} `json:"degradation"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("degraded report is not schema-valid JSON: %v", err)
	}
	if !doc.Degraded || doc.Degradation == nil {
		t.Fatal("report not marked degraded")
	}
	if len(doc.Degradation.Budgets) == 0 || doc.Degradation.CoarseDeps == 0 {
		t.Fatalf("degradation section empty: %+v", doc.Degradation)
	}
	for _, r := range doc.Degradation.Regions {
		if r.Lo > r.Hi {
			t.Errorf("region [%d, %d] inverted", r.Lo, r.Hi)
		}
	}
	if doc.TotalOps == 0 {
		t.Fatal("degraded report lost the operation counters")
	}

	if os.Getenv("POLYPROF_DEGJSON") == "1" {
		if err := os.WriteFile("DEGRADED_report.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("wrote DEGRADED_report.json")
	}
}
