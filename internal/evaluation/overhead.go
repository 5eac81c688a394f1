package evaluation

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"polyprof/internal/core"
	"polyprof/internal/feedback"
	"polyprof/internal/obs"
	"polyprof/internal/parddg"
	"polyprof/internal/sched"
	"polyprof/internal/workloads"
)

// StageCost is the measured cost of one pipeline stage: wall time, how
// many events the stage processed, and what one event is.
type StageCost struct {
	Stage  string        `json:"stage"`
	Wall   time.Duration `json:"wall_ns"`
	Events uint64        `json:"events"`
	Unit   string        `json:"unit"`
}

// EventsPerSec returns the stage throughput.
func (c StageCost) EventsPerSec() float64 {
	if c.Wall <= 0 || c.Events == 0 {
		return 0
	}
	return float64(c.Events) / c.Wall.Seconds()
}

// OverheadReport is the per-stage cost breakdown of profiling one
// workload — the shape of the paper's Experiment I, which reports the
// CPU cost of the profiling pipeline itself per stage.
type OverheadReport struct {
	Workload string `json:"workload"`
	// Shards is the parallel dependence engine's worker count used for
	// the ddg/fold stages (0 = sequential builder).
	Shards int           `json:"shards,omitempty"`
	Ops    uint64        `json:"ops"`
	Stages []StageCost   `json:"stages"`
	Total  time.Duration `json:"total_ns"`
	// Parallel is the utilization diagnosis of the sharded dependence
	// engine (per-actor busy fractions, sequencer occupancy, Amdahl
	// projection); nil on sequential runs.
	Parallel *parddg.Report `json:"parallel,omitempty"`
}

// OverheadStages is the fixed stage order of the report.
var OverheadStages = []string{"pass1", "pass2-iiv", "ddg", "fold", "sched", "feedback"}

// Overhead profiles one workload stage by stage and measures the cost
// of each: pass 1 (structure recovery), pass 2 with IIV tracking only,
// pass 2 with the full dependence engine attached, stream folding,
// scheduler model construction, and feedback extraction.  The stages
// are run separately (the IIV-only pass re-executes the program) so
// each wall time is attributable — the same decomposition the
// profiling-overhead benchmark uses.  An "overhead:<name>" root span
// encloses the per-stage spans, and every stage wall time is also
// observed into an "overhead.stage.<stage>.wall_ns" histogram, so
// suite sweeps report per-stage latency percentiles alongside the
// tables.
//
// shards > 0 runs the ddg/fold stages on the sharded parallel
// dependence engine with that many workers; 0 keeps the sequential
// builder.  In parallel mode the "ddg" row includes the folding the
// shard workers pipeline behind the VM pass, and "fold" times the
// drain + merge.
//
// Attribution caveat: the "fold" row times only the terminal
// builder.Finish() drain.  Folding work that happens incrementally per
// event during the DDG pass is charged to the "ddg" row, so "fold" is
// a lower bound on total folding cost; comparing "ddg" against
// "pass2-iiv" bounds the combined dependence-builder + incremental
// folding overhead.
func Overhead(spec workloads.Spec, shards int) (*OverheadReport, error) {
	var sc obs.Scope
	if shards > 0 && !sc.Enabled() {
		// The parallel diagnosis is read from the engine's spans, so a
		// sharded run records into a registry of its own.
		reg := obs.NewRegistry()
		reg.SetEnabled(true)
		sc = reg.Scope()
	}
	root := sc.StartSpan("overhead:" + spec.Name)
	defer root.End()
	env := core.Env{Obs: sc.WithSpan(root)}

	prog := spec.Build()
	rep := &OverheadReport{Workload: spec.Name, Shards: shards}
	add := func(stage string, wall time.Duration, events uint64, unit string) {
		rep.Stages = append(rep.Stages, StageCost{Stage: stage, Wall: wall, Events: events, Unit: unit})
		rep.Total += wall
		if env.Obs.Enabled() && wall > 0 {
			env.Obs.Observe("overhead.stage."+stage+".wall_ns", uint64(wall))
		}
	}

	t0 := time.Now()
	st, err := core.AnalyzeStructure(prog, env)
	if err != nil {
		root.Fail(err)
		return nil, fmt.Errorf("%s: pass1: %w", spec.Name, err)
	}
	add("pass1", time.Since(t0), st.Stats.Ops, "instrs")

	t0 = time.Now()
	_, iivStats, err := core.RunPass2(prog, st, nil, env)
	if err != nil {
		root.Fail(err)
		return nil, fmt.Errorf("%s: pass2-iiv: %w", spec.Name, err)
	}
	add("pass2-iiv", time.Since(t0), iivStats.Ops, "instrs")

	t0 = time.Now()
	opts := core.DefaultRunOptions()
	opts.Env = env
	opts.ParallelDDG = shards
	eng := core.NewEngine(prog, opts)
	defer eng.Close()
	p2, stats, err := core.RunPass2(prog, st, eng.Sink, env)
	if err != nil {
		root.Fail(err)
		return nil, fmt.Errorf("%s: ddg: %w", spec.Name, err)
	}
	add("ddg", time.Since(t0), stats.Ops, "instrs")
	rep.Ops = stats.Ops

	t0 = time.Now()
	g, err := eng.Fold(env.Obs)
	if err != nil {
		root.Fail(err)
		return nil, fmt.Errorf("%s: fold: %w", spec.Name, err)
	}
	add("fold", time.Since(t0), core.FoldedStreams(g), "streams")
	if shards > 0 {
		rep.Parallel = parddg.Diagnose(sc.Registry().Spans())
	}

	profile := &core.Profile{Prog: prog, Structure: st, Tree: p2.Tree, DDG: g, Stats: stats, Obs: env.Obs}
	t0 = time.Now()
	schedSp := env.Obs.StartSpan("sched-build")
	model := sched.Build(profile)
	schedSp.AddEvents(uint64(len(model.Deps)))
	schedSp.End()
	add("sched", time.Since(t0), uint64(len(model.Deps)), "deps")

	t0 = time.Now()
	fb := feedback.AnalyzeModel(profile, model)
	add("feedback", time.Since(t0), uint64(fb.TransformCount()), "nests")

	return rep, nil
}

// OverheadSuite measures the overhead of every Rodinia twin (the full
// Experiment I sweep), on the sharded dependence engine when shards > 0.
func OverheadSuite(shards int) ([]*OverheadReport, error) {
	var out []*OverheadReport
	for _, spec := range workloads.Rodinia() {
		r, err := Overhead(spec, shards)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Stage returns the named stage cost (zero value when absent).
func (r *OverheadReport) Stage(name string) StageCost {
	for _, s := range r.Stages {
		if s.Stage == name {
			return s
		}
	}
	return StageCost{}
}

// RenderOverhead prints one workload's per-stage cost table.
func RenderOverhead(r *OverheadReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profiling overhead — %s (per-stage cost, Experiment I shape)\n\n", r.Workload)
	fmt.Fprintf(&sb, "%-12s %10s %7s %12s %10s  %s\n", "stage", "wall", "%wall", "events", "events/s", "unit")
	for _, s := range r.Stages {
		share := 0.0
		if r.Total > 0 {
			share = 100 * float64(s.Wall) / float64(r.Total)
		}
		fmt.Fprintf(&sb, "%-12s %10s %6.1f%% %12d %10s  %s\n",
			s.Stage, obs.FormatDuration(s.Wall), share, s.Events,
			obs.FormatRate(s.EventsPerSec()), s.Unit)
	}
	fmt.Fprintf(&sb, "%-12s %10s %6.1f%% %12d %10s  %s\n",
		"total", obs.FormatDuration(r.Total), 100.0, r.Ops,
		obs.FormatRate(rate(r.Ops, r.Total)), "instrs (one full run)")
	sb.WriteString(foldCaveat)
	if r.Parallel != nil {
		sb.WriteString("\n")
		sb.WriteString(r.Parallel.Render())
	}
	return sb.String()
}

// foldCaveat is the attribution footnote printed under the cost
// tables (see the Overhead doc comment).
const foldCaveat = "note: fold times the terminal Finish() drain; per-event incremental folding is charged to ddg\n"

// RenderOverheadSuite prints the suite-wide cost table: one row per
// benchmark with the wall time of every stage, plus a TOTAL row — the
// layout of the paper's Experiment I, which sums the whole Rodinia
// suite to 3h06 of profiling CPU time.
func RenderOverheadSuite(rs []*OverheadReport) string {
	var sb strings.Builder
	sb.WriteString("profiling overhead — Rodinia suite (Experiment I)\n\n")
	fmt.Fprintf(&sb, "%-16s", "benchmark")
	for _, st := range OverheadStages {
		fmt.Fprintf(&sb, " %10s", st)
	}
	fmt.Fprintf(&sb, " %10s %12s %10s\n", "total", "instrs", "instrs/s")

	var grand OverheadReport
	grand.Workload = "TOTAL"
	stageTotals := map[string]time.Duration{}
	for _, r := range rs {
		fmt.Fprintf(&sb, "%-16s", r.Workload)
		for _, st := range OverheadStages {
			c := r.Stage(st)
			stageTotals[st] += c.Wall
			fmt.Fprintf(&sb, " %10s", obs.FormatDuration(c.Wall))
		}
		fmt.Fprintf(&sb, " %10s %12d %10s\n",
			obs.FormatDuration(r.Total), r.Ops, obs.FormatRate(rate(r.Ops, r.Total)))
		grand.Total += r.Total
		grand.Ops += r.Ops
	}
	fmt.Fprintf(&sb, "%-16s", "TOTAL")
	for _, st := range OverheadStages {
		fmt.Fprintf(&sb, " %10s", obs.FormatDuration(stageTotals[st]))
	}
	fmt.Fprintf(&sb, " %10s %12d %10s\n",
		obs.FormatDuration(grand.Total), grand.Ops, obs.FormatRate(rate(grand.Ops, grand.Total)))

	// Per-stage share of the suite, the paper's headline breakdown.
	sb.WriteString("\nstage share of total profiling cost:\n")
	for _, st := range OverheadStages {
		share := 0.0
		if grand.Total > 0 {
			share = 100 * float64(stageTotals[st]) / float64(grand.Total)
		}
		fmt.Fprintf(&sb, "  %-12s %10s %6.1f%%\n", st, obs.FormatDuration(stageTotals[st]), share)
	}
	sb.WriteString(foldCaveat)
	return sb.String()
}

// OverheadJSON serializes one or more overhead reports.
func OverheadJSON(rs []*OverheadReport) ([]byte, error) {
	return json.MarshalIndent(rs, "", "  ")
}

func rate(events uint64, wall time.Duration) float64 {
	if wall <= 0 || events == 0 {
		return 0
	}
	return float64(events) / wall.Seconds()
}
