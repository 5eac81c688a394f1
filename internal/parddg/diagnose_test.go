package parddg_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/ddg"
	"polyprof/internal/obs"
	"polyprof/internal/parddg"
)

// engineSpans is a synthetic engine run in nanoseconds, the one the
// diagnosis tests share: wall 110; the sequencer runs 0..90, is blocked
// on the free list 90..100 and idles while the merge runs 100..110;
// shard-0 waits 0..40 and runs 40..100, shard-1 waits 0..70 and runs
// 70..100.  Records are in end order, as a registry keeps them.
func engineSpans(rootID uint64) []obs.SpanRecord {
	return []obs.SpanRecord{
		{Name: "ddg.shard.0", ID: rootID + 1, Parent: rootID, Depth: 2, Wall: 100, Blocked: 40, Blocks: 1},
		{Name: "ddg.shard.1", ID: rootID + 2, Parent: rootID, Depth: 2, Wall: 100, Blocked: 70, Blocks: 1},
		{Name: "ddg-merge", ID: rootID + 3, Parent: rootID, Depth: 2, Wall: 10},
		{Name: "ddg-shards", ID: rootID, Depth: 1, Wall: 110, Blocked: 10, Blocks: 1},
	}
}

// TestReportDiagnosis checks the derived diagnosis of a run in which
// the sequencer out-busies every shard: dominance, occupancy, serial
// fraction, critical path, Amdahl.
func TestReportDiagnosis(t *testing.T) {
	r := parddg.Diagnose(engineSpans(1))
	if r.WallNS != 110 || r.Shards != 2 {
		t.Fatalf("wall=%d shards=%d", r.WallNS, r.Shards)
	}
	occ := 90.0 / 110.0
	if diff := r.SequencerOccupancy - occ; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("occupancy = %v, want %v", r.SequencerOccupancy, occ)
	}
	if r.MaxShardBusy >= r.SequencerOccupancy {
		t.Fatalf("max shard busy %v >= occupancy %v", r.MaxShardBusy, r.SequencerOccupancy)
	}
	if r.Dominant != "sequencer" {
		t.Fatalf("dominant = %q, want sequencer", r.Dominant)
	}
	if r.BackpressureNS != 10 {
		t.Fatalf("backpressure = %d, want 10", r.BackpressureNS)
	}
	// serial = seq 90 + merge 10 = 100; parallel = 60 + 30 = 90.
	serial := 100.0 / 190.0
	if diff := r.SerialFrac - serial; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("serial frac = %v, want %v", r.SerialFrac, serial)
	}
	if r.CriticalPathNS != 100+60 {
		t.Fatalf("critical path = %d, want 160", r.CriticalPathNS)
	}
	if len(r.Amdahl) == 0 || r.Amdahl[0].Shards != 1 || r.Amdahl[0].Projected != 1 {
		t.Fatalf("amdahl = %+v", r.Amdahl)
	}
	for i := 1; i < len(r.Amdahl); i++ {
		if r.Amdahl[i].Projected <= r.Amdahl[i-1].Projected {
			t.Fatalf("amdahl not monotone: %+v", r.Amdahl)
		}
		if lim := 1 / r.SerialFrac; r.Amdahl[i].Projected >= lim {
			t.Fatalf("amdahl row %d exceeds the 1/s limit %v", i, lim)
		}
	}

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"sequencer_occupancy", "serial_frac", "critical_path_ns", "amdahl", "dominant"} {
		if !strings.Contains(string(data), `"`+key+`"`) {
			t.Fatalf("report JSON missing %q: %s", key, data)
		}
	}
}

// TestTransitionsAccumulate checks each actor's state split: every
// actor's four states sum to the engine wall exactly.
func TestTransitionsAccumulate(t *testing.T) {
	r := parddg.Diagnose(engineSpans(1))
	want := []parddg.ActorStat{
		{Name: "sequencer", Role: "sequencer", RunningNS: 90, BlockRecvNS: 10, IdleNS: 10, Transitions: 4},
		{Name: "merge", Role: "merge", RunningNS: 10, IdleNS: 100, Transitions: 2},
		{Name: "shard-0", Role: "shard", RunningNS: 60, BlockRecvNS: 40, IdleNS: 10, Transitions: 4},
		{Name: "shard-1", Role: "shard", RunningNS: 30, BlockRecvNS: 70, IdleNS: 10, Transitions: 4},
	}
	if len(r.Actors) != len(want) {
		t.Fatalf("actors = %+v", r.Actors)
	}
	for i, a := range r.Actors {
		w := want[i]
		w.BusyFrac = float64(w.RunningNS) / 110
		if a != w {
			t.Errorf("actor %d = %+v, want %+v", i, a, w)
		}
		if sum := a.RunningNS + a.BlockSendNS + a.BlockRecvNS + a.IdleNS; sum != r.WallNS {
			t.Errorf("actor %s states sum to %d, want wall %d", a.Name, sum, r.WallNS)
		}
	}
}

// TestDiagnoseNewestEngine: a registry holding several runs yields the
// diagnosis of the newest engine, from its own children only.
func TestDiagnoseNewestEngine(t *testing.T) {
	old := engineSpans(1)
	old[0].Wall, old[0].Blocked = 5, 5 // an idle-bound shard-0
	spans := append(old, engineSpans(10)...)
	spans = append(spans, obs.SpanRecord{Name: "ddg.shard.7", ID: 20, Parent: 99, Wall: 1})
	r := parddg.Diagnose(spans)
	if r.Shards != 2 || r.Actors[2].RunningNS != 60 {
		t.Fatalf("diagnosis mixed engines: %+v", r)
	}
}

func TestNilReceiversAreSafe(t *testing.T) {
	if r := parddg.Diagnose(nil); r != nil {
		t.Fatalf("Diagnose(nil) = %+v", r)
	}
	// A run without the engine, and the zero records a disabled
	// registry's spans end with, hold no diagnosis.
	if r := parddg.Diagnose([]obs.SpanRecord{{Name: "pass2-ddg", ID: 1}, {Name: "ddg-shards"}}); r != nil {
		t.Fatalf("Diagnose(no engine) = %+v", r)
	}
	var r *parddg.Report
	if r.Render() != "" {
		t.Fatal("nil report renders text")
	}
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	r.Publish(reg.Scope())
	if snap := reg.Snapshot(); len(snap.Gauges) != 0 || len(snap.Counters) != 0 {
		t.Fatalf("nil report published metrics: %+v", snap)
	}
}

// TestEngineDiagnosis runs a real sharded profile into an enabled
// registry and sanity-checks the diagnosis the engine's spans yield:
// all actors present, states summing to the engine wall, the metrics
// published at finish, and the graph still identical to the
// sequential builder's.
func TestEngineDiagnosis(t *testing.T) {
	const shards = 2
	prog := buildWorkload(t, "example2")
	seqG, err := runGraph(t, prog, 0, budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	bud := budget.New(context.Background(), budget.Limits{})
	opts := ddg.DefaultOptions()
	opts.Budget = bud
	opts.Obs = reg.Scope()
	eng := parddg.NewEngine(prog, parddg.Options{Shards: shards, DDG: opts})
	defer eng.Close()
	if _, _, err := core.RunPass2(prog, st, eng, core.Env{Budget: bud}); err != nil {
		t.Fatal(err)
	}
	g, err := eng.FinishChecked()
	if err != nil {
		t.Fatal(err)
	}

	rep := parddg.Diagnose(reg.Spans())
	if rep == nil {
		t.Fatal("no diagnosis from the engine's spans")
	}
	if rep.Shards != shards || rep.WallNS <= 0 {
		t.Fatalf("report shards = %d, wall = %d", rep.Shards, rep.WallNS)
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
		if a.Role == "shard" && a.BlockRecvNS <= 0 {
			t.Fatalf("shard %s recorded no blocked time: %+v", a.Name, a)
		}
		if sum := a.RunningNS + a.BlockSendNS + a.BlockRecvNS + a.IdleNS; sum != rep.WallNS {
			t.Fatalf("actor %s states sum to %d, want wall %d", a.Name, sum, rep.WallNS)
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
	if reg.Histogram("parddg.batch.queue_depth").Count() == 0 {
		t.Fatal("no parddg.batch.queue_depth samples recorded")
	}
	if n := reg.Histogram("ddg.shard.busy_ratio_pct100").Count(); n != shards {
		t.Fatalf("engine published %d shard busy ratios at finish, want %d", n, shards)
	}

	// Recording the diagnosis must not perturb the graph.
	seq, got := depSet(seqG), depSet(g)
	if len(seq) != len(got) {
		t.Fatalf("dep count: sequential %d vs diagnosed %d", len(seq), len(got))
	}
	for k := range seq {
		if _, ok := got[k]; !ok {
			t.Fatalf("dep %s missing from diagnosed run", k)
		}
	}
}

// TestDisabledEngineRecordsNothing: with the scope off the engine
// records no actor spans and publishes no diagnosis gauges.
func TestDisabledEngineRecordsNothing(t *testing.T) {
	reg := obs.NewRegistry()
	prog := buildWorkload(t, "example1")
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
	if _, err := eng.FinishChecked(); err != nil {
		t.Fatal(err)
	}
	if spans := reg.Spans(); len(spans) != 0 {
		t.Fatalf("disabled registry recorded spans: %+v", spans)
	}
	if snap := reg.Snapshot(); len(snap.Gauges) != 0 {
		t.Fatalf("disabled registry got gauges: %+v", snap.Gauges)
	}
}
