package parddg_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/ddg"
	"polyprof/internal/faultinject"
	"polyprof/internal/fold"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/parddg"
	"polyprof/internal/workloads"
)

func buildWorkload(t testing.TB, name string) *isa.Program {
	t.Helper()
	spec := workloads.ByName(name)
	if spec == nil {
		t.Fatalf("unknown workload %q", name)
	}
	return spec.Build()
}

// runGraph profiles prog through pass 2 with either the sequential
// builder (shards == 0) or the sharded engine, under an optional
// budget, and returns the finished graph.
func runGraph(t testing.TB, prog *isa.Program, shards int, limits budget.Limits) (*ddg.Graph, error) {
	t.Helper()
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	bud := budget.New(context.Background(), limits)
	opts := ddg.DefaultOptions()
	opts.Budget = bud
	var sink core.InstrSink
	var fin interface {
		FinishChecked() (*ddg.Graph, error)
	}
	if shards > 0 {
		eng := parddg.NewEngine(prog, parddg.Options{Shards: shards, DDG: opts})
		defer eng.Close()
		sink, fin = eng, eng
	} else {
		b := ddg.NewBuilder(prog, opts)
		sink, fin = b, b
	}
	// Panic containment mirrors core.Run's per-stage RecoverStage: a
	// panic-mode fault becomes an error here, as it does in the real
	// pipeline.
	var g *ddg.Graph
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("contained panic: %v", r)
			}
		}()
		if _, _, err := core.RunPass2(prog, st, sink, core.Env{Budget: bud}); err != nil {
			return err
		}
		g, err = fin.FinishChecked()
		return err
	}()
	if err != nil {
		return nil, err
	}
	return g, nil
}

// depKey identifies one dependence bundle for cross-run comparison
// (stmt/instr IDs are deterministic across runs of the same program).
func depKey(d *ddg.Dep) string {
	return fmt.Sprintf("%d->%d:%d", d.Src.ID, d.Dst.ID, d.Kind)
}

func depSet(g *ddg.Graph) map[string]*ddg.Dep {
	out := make(map[string]*ddg.Dep, len(g.Deps))
	for _, d := range g.Deps {
		out[depKey(d)] = d
	}
	return out
}

// TestEngineConcurrentRuns drives several engines at once — each with
// its own shard workers — and checks every one against the sequential
// graph.  Under -race this is the concurrency soundness test for the
// whole dispatch/barrier/merge protocol; folder ownership assertions
// catch any stream with two owners.
func TestEngineConcurrentRuns(t *testing.T) {
	defer fold.SetOwnershipChecks(fold.SetOwnershipChecks(true))
	prog := buildWorkload(t, "backprop")
	want, err := runGraph(t, prog, 0, budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	wantDeps := depSet(want)

	runs := 4
	if testing.Short() {
		runs = 2
	}
	var wg sync.WaitGroup
	errs := make([]error, runs)
	graphs := make([]*ddg.Graph, runs)
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs[i], errs[i] = runGraph(t, prog, 4, budget.Limits{})
		}()
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		g := graphs[i]
		if g.TotalOps != want.TotalOps || len(g.Deps) != len(want.Deps) {
			t.Fatalf("run %d: ops %d deps %d, want ops %d deps %d",
				i, g.TotalOps, len(g.Deps), want.TotalOps, len(want.Deps))
		}
		for k, d := range depSet(g) {
			w, ok := wantDeps[k]
			if !ok {
				t.Fatalf("run %d: dep %s not in sequential graph", i, k)
			}
			if d.Count != w.Count || len(d.Pieces) != len(w.Pieces) {
				t.Fatalf("run %d: dep %s count/pieces %d/%d, want %d/%d",
					i, k, d.Count, len(d.Pieces), w.Count, len(w.Pieces))
			}
		}
	}
}

// TestFaultPointsFailCleanly arms each parddg fault point in error mode
// and checks the failure is contained: the run returns an error (no
// panic escapes, no deadlock on the batch barriers) and a subsequent
// clean run on a fresh engine succeeds.
func TestFaultPointsFailCleanly(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	prog := buildWorkload(t, "example1")
	for _, point := range []string{"parddg.batch.dispatch", "parddg.shard.insert", "parddg.merge"} {
		for _, mode := range []string{"error", "panic"} {
			t.Run(point+"/"+mode, func(t *testing.T) {
				if err := faultinject.ArmString(fmt.Sprintf("%s=%s:chaos:1", point, mode)); err != nil {
					t.Fatal(err)
				}
				defer faultinject.DisarmAll()
				if _, err := runGraph(t, prog, 2, budget.Limits{}); err == nil {
					t.Fatalf("injected %s at %s: run succeeded, want error", mode, point)
				}
				// The engine must be fully reusable afterwards.
				if _, err := runGraph(t, prog, 2, budget.Limits{}); err != nil {
					t.Fatalf("clean run after %s fault: %v", point, err)
				}
			})
		}
	}
}

// TestShardInsertBudgetDegrades: an injected shadow-bytes exhaustion at
// the shard-insert point coarsens tracking — exactly like the
// sequential engine's ddg.shadow.insert — instead of failing the run.
func TestShardInsertBudgetDegrades(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	prog := buildWorkload(t, "backprop")
	if err := faultinject.ArmString("parddg.shard.insert=budget:" + budget.ResourceShadowBytes + ":1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.DisarmAll()
	g, err := runGraph(t, prog, 4, budget.Limits{})
	if err != nil {
		t.Fatalf("budget fault must degrade, not fail: %v", err)
	}
	if g.Degraded == nil || g.Degraded.CoarseEvents == 0 {
		t.Fatalf("graph not degraded after injected shadow exhaustion: %+v", g.Degraded)
	}
}

// TestDegradationSuperset: under a real shadow budget the parallel
// engine degrades soundly — it still reports a graph, marks it
// degraded, and every *exact* dependence bundle it keeps also exists
// in the unlimited run (degradation may only replace exact edges with
// coarse over-approximations, never invent exact ones).
func TestDegradationSuperset(t *testing.T) {
	prog := buildWorkload(t, "nn")
	exact, err := runGraph(t, prog, 4, budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Degraded != nil {
		t.Fatal("unlimited run must not degrade")
	}
	exactDeps := depSet(exact)

	deg, err := runGraph(t, prog, 4, budget.Limits{MaxShadowBytes: 4096})
	if err != nil {
		t.Fatalf("degrading limits must not fail the run: %v", err)
	}
	if deg.Degraded == nil || len(deg.Degraded.Budgets) == 0 {
		t.Fatal("shadow-limited run not marked degraded")
	}
	if deg.TotalOps != exact.TotalOps {
		t.Fatalf("degradation changed op counts: %d vs %d", deg.TotalOps, exact.TotalOps)
	}
	coarse := 0
	for k, d := range depSet(deg) {
		if d.Degraded {
			coarse++
			continue
		}
		if _, ok := exactDeps[k]; !ok {
			t.Fatalf("degraded run invented exact dep %s", k)
		}
	}
	if coarse == 0 {
		t.Fatal("degraded run has no coarse dependence bundles")
	}
	for _, r := range deg.Degraded.Regions {
		if r.Lo > r.Hi {
			t.Fatalf("coarse region [%d, %d] inverted", r.Lo, r.Hi)
		}
	}
}

// runRecorded profiles prog on a 2-shard engine whose ddg scope records
// into reg.
func runRecorded(t *testing.T, prog *isa.Program, reg *obs.Registry) *ddg.Graph {
	t.Helper()
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	opts := ddg.DefaultOptions()
	opts.Obs = reg.Scope()
	eng := parddg.NewEngine(prog, parddg.Options{Shards: 2, DDG: opts})
	defer eng.Close()
	if _, _, err := core.RunPass2(prog, st, eng, core.Env{}); err != nil {
		t.Fatal(err)
	}
	g, err := eng.FinishChecked()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEngineSpans: with the scope on, the engine's actors are spans —
// a ddg-shards root with one ddg.shard.N child per worker and the
// ddg-merge child — and recording them does not perturb the graph.
func TestEngineSpans(t *testing.T) {
	prog := buildWorkload(t, "example2")
	want, err := runGraph(t, prog, 0, budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	g := runRecorded(t, prog, reg)

	spans := reg.Spans()
	var root uint64
	for _, sp := range spans {
		if sp.Name == "ddg-shards" {
			root = sp.ID
		}
	}
	if root == 0 {
		t.Fatalf("no ddg-shards span: %+v", spans)
	}
	children := map[string]bool{}
	for _, sp := range spans {
		if sp.Parent == root {
			children[sp.Name] = true
		}
	}
	for _, name := range []string{"ddg.shard.0", "ddg.shard.1", "ddg-merge"} {
		if !children[name] {
			t.Errorf("span %s missing under ddg-shards: %+v", name, spans)
		}
	}
	if reg.Histogram("parddg.batch.queue_depth").Count() == 0 {
		t.Error("no parddg.batch.queue_depth samples recorded")
	}
	if len(g.Deps) != len(want.Deps) {
		t.Fatalf("dep count: sequential %d vs recorded %d", len(want.Deps), len(g.Deps))
	}
	got := depSet(g)
	for k := range depSet(want) {
		if _, ok := got[k]; !ok {
			t.Fatalf("dep %s missing from the recorded run", k)
		}
	}
}

// TestDisabledEngineRecordsNothing: with the scope off the engine
// records no actor spans and no metrics.
func TestDisabledEngineRecordsNothing(t *testing.T) {
	reg := obs.NewRegistry()
	runRecorded(t, buildWorkload(t, "example1"), reg)
	if spans := reg.Spans(); len(spans) != 0 {
		t.Fatalf("disabled registry recorded spans: %+v", spans)
	}
	if snap := reg.Snapshot(); len(snap.Gauges) != 0 || len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("disabled registry got metrics: %+v", snap)
	}
}
