package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/faultinject"
	"polyprof/internal/feedback"
	"polyprof/internal/isa"
	"polyprof/internal/workloads"
)

// runWithin runs core.Run on a goroutine and fails the test when it
// does not return within a minute: a failed parallel engine must never
// leave its sequencer or a shard waiting on a batch barrier.
func runWithin(t *testing.T, prog *isa.Program, opts core.Options) (*core.Profile, error) {
	t.Helper()
	type result struct {
		p   *core.Profile
		err error
	}
	done := make(chan result, 1)
	go func() {
		p, err := core.Run(prog, opts)
		done <- result{p, err}
	}()
	select {
	case r := <-done:
		return r.p, r.err
	case <-time.After(time.Minute):
		t.Fatal("core.Run hung")
		return nil, nil
	}
}

// reportJSON profiles prog on the given engine (0 = sequential) and
// renders its feedback report.
func reportJSON(t *testing.T, prog *isa.Program, shards int) []byte {
	t.Helper()
	opts := core.DefaultRunOptions()
	opts.ParallelDDG = shards
	p, err := runWithin(t, prog, opts)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	rep, err := feedback.AnalyzeChecked(p)
	if err != nil {
		t.Fatal(err)
	}
	cm := feedback.DefaultCostModel()
	data, err := rep.JSON(&cm)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosParallelEngineFaults walks the parallel engine's fault
// points under core.Run on 2 shards.  Every fatal injection must end
// the run with an error, without a hang; a clean parallel run
// afterwards must render the sequential report byte for byte.
func TestChaosParallelEngineFaults(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	// nn's ten-odd batches keep the pipeline busy after a fault.
	prog := workloads.ByName("nn").Build()
	want := reportJSON(t, prog, 0)
	opts := core.DefaultRunOptions()
	opts.ParallelDDG = 2
	for _, point := range []string{"parddg.batch.dispatch", "parddg.shard.insert", "parddg.merge"} {
		for _, mode := range []string{"panic", "error", "budget"} {
			t.Run(point+"/"+mode, func(t *testing.T) {
				if err := faultinject.ArmString(fmt.Sprintf("%s=%s:chaos:1", point, mode)); err != nil {
					t.Fatal(err)
				}
				defer faultinject.DisarmAll()
				if _, err := runWithin(t, prog, opts); err == nil {
					t.Fatalf("injected %s at %s: run succeeded, want error", mode, point)
				}
				if faultinject.Point(point).Armed() {
					t.Fatalf("%s never fired", point)
				}
				if got := reportJSON(t, prog, 2); !bytes.Equal(got, want) {
					t.Fatalf("clean parallel run after the %s fault differs from the sequential report", point)
				}
			})
		}
	}
}

// TestChaosInjectedShadowBudgetDegradesParallel: injected shadow
// exhaustion at the parallel engine's shard-insert point degrades the
// run exactly as ddg.shadow.insert degrades the sequential engine — a
// report marked degraded by the shadow-bytes budget, not an error.
func TestChaosInjectedShadowBudgetDegradesParallel(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	prog := workloads.ByName("nn").Build()
	degraded := func(point string, shards int) *core.Profile {
		t.Helper()
		if err := faultinject.ArmString(point + "=budget:" + budget.ResourceShadowBytes + ":1"); err != nil {
			t.Fatal(err)
		}
		defer faultinject.DisarmAll()
		opts := core.DefaultRunOptions()
		opts.ParallelDDG = shards
		p, err := runWithin(t, prog, opts)
		if err != nil {
			t.Fatalf("%s: budget fault must degrade, not fail: %v", point, err)
		}
		d := p.DDG.Degraded
		if d == nil || d.CoarseEvents == 0 {
			t.Fatalf("%s: run not degraded: %+v", point, d)
		}
		return p
	}
	seq := degraded("ddg.shadow.insert", 0).DDG.Degraded
	par := degraded("parddg.shard.insert", 2).DDG.Degraded
	if fmt.Sprint(par.Budgets) != fmt.Sprint(seq.Budgets) {
		t.Fatalf("parallel degradation budgets %v, sequential %v", par.Budgets, seq.Budgets)
	}
}
