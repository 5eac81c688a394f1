package parddg_test

import (
	"context"
	"fmt"
	"testing"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/ddg"
	"polyprof/internal/obs/sampler"
	"polyprof/internal/parddg"
)

// runSampled profiles prog through the sharded engine with an enabled
// sampler attached and returns the graph plus the diagnosis report.
func runSampled(t testing.TB, shards int) (*ddg.Graph, *sampler.Report) {
	t.Helper()
	prog := buildWorkload(t, "example2")
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	bud := budget.New(context.Background(), budget.Limits{})
	opts := ddg.DefaultOptions()
	opts.Budget = bud
	smp := sampler.New()
	smp.SetEnabled(true)
	eng := parddg.NewEngine(prog, parddg.Options{Shards: shards, DDG: opts, Sampler: smp})
	defer eng.Close()
	if _, _, err := core.RunPass2(prog, st, eng, core.Env{Budget: bud}); err != nil {
		t.Fatal(err)
	}
	g, err := eng.FinishChecked()
	if err != nil {
		t.Fatal(err)
	}
	return g, smp.Report()
}

// TestEngineSamplerReport runs a real sharded profile with the sampler
// on and sanity-checks the derived diagnosis: all actors present, busy
// fractions within [0,1], queue depth sampled, and the graph still
// bit-identical to the sequential builder's.
func TestEngineSamplerReport(t *testing.T) {
	const shards = 2
	seqG, err := runGraph(t, buildWorkload(t, "example2"), 0, budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	g, rep := runSampled(t, shards)

	if rep == nil {
		t.Fatal("nil report from sampled run")
	}
	if rep.Shards != shards {
		t.Fatalf("report shards = %d, want %d", rep.Shards, shards)
	}
	if rep.WallNS <= 0 {
		t.Fatalf("wall = %d", rep.WallNS)
	}
	want := map[string]bool{"sequencer": false, "merge": false}
	for i := 0; i < shards; i++ {
		want[fmt.Sprintf("shard-%d", i)] = false
	}
	for _, a := range rep.Actors {
		if _, ok := want[a.Name]; !ok {
			t.Fatalf("unexpected actor %q", a.Name)
		}
		want[a.Name] = true
		if a.BusyFrac < 0 || a.BusyFrac > 1 {
			t.Fatalf("actor %s busy fraction %v out of [0,1]", a.Name, a.BusyFrac)
		}
		if a.Transitions == 0 {
			t.Fatalf("actor %s recorded no transitions", a.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("actor %q missing from report", name)
		}
	}
	if rep.SerialFrac < 0 || rep.SerialFrac > 1 {
		t.Fatalf("serial fraction %v out of [0,1]", rep.SerialFrac)
	}
	if rep.CriticalPathNS <= 0 {
		t.Fatalf("critical path = %d", rep.CriticalPathNS)
	}
	var sampled bool
	for _, q := range rep.Queues {
		if q.Samples > 0 {
			sampled = true
		}
	}
	if !sampled {
		t.Fatal("no queue depth samples recorded")
	}

	// Attaching the sampler must not perturb the graph.
	seq, got := depSet(seqG), depSet(g)
	if len(seq) != len(got) {
		t.Fatalf("dep count: sequential %d vs sampled %d", len(seq), len(got))
	}
	for k := range seq {
		if _, ok := got[k]; !ok {
			t.Fatalf("dep %s missing from sampled run", k)
		}
	}
}
