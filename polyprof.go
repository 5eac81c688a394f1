// Package polyprof is a reproduction of POLY-PROF, the data-flow /
// dependence profiling infrastructure for structured transformation
// feedback of Gruber et al. (PPoPP 2019, doi 10.1145/3293883.3295737).
//
// The library profiles programs written for a small binary-like virtual
// ISA (the substitute for the paper's QEMU-instrumented x86 binaries),
// recovers their interprocedural control structure dynamically, tags
// every dynamic instruction with a dynamic interprocedural iteration
// vector, folds the resulting dependence streams into a compact
// polyhedral program, and reports structured-transformation feedback:
// parallel and permutable loop dimensions, interchange / skewing /
// tiling / fusion suggestions, stride and reuse statistics, annotated
// flame graphs, and replay-based speedup estimates.
//
// Quick start:
//
//	pb := polyprof.NewProgram("saxpy")
//	x := pb.Global("x", 1024)
//	y := pb.Global("y", 1024)
//	f := pb.Func("main", 0)
//	a := f.FConst(2.0)
//	xB, yB := f.IConst(x.Base), f.IConst(y.Base)
//	f.Loop("L", f.IConst(0), f.IConst(1024), 1, func(i polyprof.Reg) {
//		v := f.FAdd(f.FMul(a, f.FLoadIdx(xB, i, 0)), f.FLoadIdx(yB, i, 0))
//		f.FStoreIdx(yB, i, 0, v)
//	})
//	f.Halt()
//	pb.SetMain(f)
//
//	report, err := polyprof.Profile(pb.MustBuild())
//	if err != nil { ... }
//	fmt.Print(report.Summary())
package polyprof

import (
	"context"
	"fmt"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/evaluation"
	"polyprof/internal/feedback"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/staticpoly"
	"polyprof/internal/transform"
	"polyprof/internal/vm"
	"polyprof/internal/workloads"
)

// Re-exported program construction types: see the builder methods on
// ProgramBuilder and FuncBuilder for the full construction API.
type (
	// Program is an executable image for the polyprof virtual ISA.
	Program = isa.Program
	// ProgramBuilder assembles a Program.
	ProgramBuilder = isa.ProgramBuilder
	// FuncBuilder emits code into one function.
	FuncBuilder = isa.FuncBuilder
	// Reg names a virtual register.
	Reg = isa.Reg
	// Global describes a named memory region.
	Global = isa.Global

	// ExecutionProfile is the raw result of the two instrumented runs:
	// control structure, dynamic schedule tree, and folded DDG.
	ExecutionProfile = core.Profile
	// Report is the analyzed feedback (regions, metrics, transformations,
	// flame graph, speedup estimation).
	Report = feedback.Report
	// Region is one reported region of interest.
	Region = feedback.Region
	// Metrics are the per-region Table 5 statistics.
	Metrics = feedback.Metrics
	// CostModel parameterizes speedup estimation.
	CostModel = feedback.CostModel

	// StaticResult is the verdict of the Polly-like static baseline.
	StaticResult = staticpoly.Result

	// WorkloadSpec describes one bundled benchmark twin.
	WorkloadSpec = workloads.Spec

	// BenchResult bundles profile + report + static baseline + Table 5
	// row for one workload.
	BenchResult = evaluation.BenchResult

	// BudgetLimits are per-run resource limits (zero fields unlimited):
	// wall clock, VM steps, and trace events are hard limits that abort
	// with a *BudgetError; shadow bytes and DDG edges are degrading
	// limits that coarsen the dependence graph instead of failing.
	BudgetLimits = budget.Limits
	// BudgetError reports which resource a run exhausted, at which
	// stage; extract it from a pipeline error with errors.As.
	BudgetError = budget.Error

	// Epoch is one streaming epoch boundary: ordinal, event count, a
	// serialized checkpoint (non-degraded runs), and the provisional
	// profile folded on demand by its Provisional method.
	Epoch = core.Epoch
	// Checkpoint is the decoded pass-2 state of one epoch boundary; a
	// resumed run restores from it instead of replaying pass 2 from
	// event zero.
	Checkpoint = core.Checkpoint

	// OptimizeReport is the schedule-application engine's result: per
	// static nest, the attempted interchange/tiling variants with their
	// legality verdicts, output-equality verification, and measured
	// speedups under the VM cycle/cache model.
	OptimizeReport = transform.Report
	// OptimizeVariant is one attempted transformation of one nest.
	OptimizeVariant = transform.Variant
)

// NewProgram starts building a program.
func NewProgram(name string) *ProgramBuilder { return isa.NewProgram(name) }

// Profile runs the full POLY-PROF pipeline on a program: two
// instrumented executions, DDG folding, scheduling analysis, and
// feedback extraction.
func Profile(prog *Program) (*Report, error) {
	p, err := core.Run(prog, core.DefaultRunOptions())
	if err != nil {
		return nil, err
	}
	return feedback.AnalyzeChecked(p)
}

// ProfileOptions configures a governed profiling run.
type ProfileOptions struct {
	// Limits are the run's resource limits (zero fields unlimited).  The
	// run aborts with a *BudgetError when its context is canceled, its
	// deadline (or Limits.Wall) passes, or a hard step/event limit
	// trips, and degrades — coarsening the DDG, still sound in the
	// may-only-add-dependences direction — when a shadow-memory or edge
	// limit trips.  A degraded run reports Degraded/Degradation in its
	// JSON form.
	Limits BudgetLimits
	// ParallelDDG selects the sharded parallel dependence engine with
	// that many shard workers; 0 keeps the sequential builder.  The
	// parallel engine's report is bit-for-bit identical to the
	// sequential one on non-degraded runs.  It is a library option
	// only: the CLI and the daemon always run the sequential builder.
	ParallelDDG int
	// EpochEvents, when positive, runs the pipeline in streaming mode:
	// pass 2 pauses every EpochEvents dynamic instructions and (with
	// OnEpoch set) emits a resume checkpoint, folding the state seen so
	// far into a provisional profile when the callback asks for one
	// (Epoch.Provisional).  The final report is
	// byte-identical to a buffered run.  With a shadow-memory limit set,
	// streaming also bounds memory: stale shadow records are folded and
	// released at every boundary.
	EpochEvents uint64
	// OnEpoch receives every epoch boundary; a non-nil error aborts the
	// run.
	OnEpoch func(*Epoch) error
	// Resume restarts pass 2 from a decoded checkpoint (see
	// DecodeCheckpoint) instead of event zero, on either engine: a
	// checkpoint taken at any ParallelDDG resumes at any other.
	Resume *Checkpoint
}

// DecodeCheckpoint parses a checkpoint serialized by a streaming run
// (Epoch.Checkpoint).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	return core.DecodeCheckpoint(data)
}

// runOptions converts popts into the pipeline's run options, governed
// by a fresh budget bound to ctx.
func (popts ProfileOptions) runOptions(ctx context.Context) core.Options {
	opts := core.DefaultRunOptions()
	opts.Budget = budget.New(ctx, popts.Limits)
	opts.ParallelDDG = popts.ParallelDDG
	opts.EpochEvents = popts.EpochEvents
	opts.OnEpoch = popts.OnEpoch
	opts.Resume = popts.Resume
	return opts
}

// ProfileWith is Profile under resource governance (ctx and
// popts.Limits), engine selection and streaming: see ProfileOptions.
func ProfileWith(ctx context.Context, prog *Program, popts ProfileOptions) (*Report, error) {
	p, err := core.Run(prog, popts.runOptions(ctx))
	if err != nil {
		return nil, err
	}
	return feedback.AnalyzeChecked(p)
}

// OptimizeWith closes the profile-guided-optimization loop on a
// program: run the profiling pipeline under popts, then hand the
// suggested schedules to the transform engine, which applies them
// (loop interchange and rectangular tiling on perfectly nested
// bands), checks legality against the folded DDG, verifies
// bit-identical outputs, and measures the cycle/cache-model speedup
// of every surviving variant.  tileSize <= 0 selects the default tile
// edge.  The profiling Report is returned alongside the optimize
// report; measurement re-executions charge the same budget as the
// profiled run, and degraded runs refuse all transformations.
func OptimizeWith(ctx context.Context, prog *Program, popts ProfileOptions, tileSize int) (*Report, *OptimizeReport, error) {
	p, err := core.Run(prog, popts.runOptions(ctx))
	if err != nil {
		return nil, nil, err
	}
	rep, err := feedback.AnalyzeChecked(p)
	if err != nil {
		return nil, nil, err
	}
	opt, err := transform.Optimize(p, rep.Model, rep.AllTransforms(), transform.Options{
		TileSize: tileSize,
		Budget:   p.Budget,
	})
	return rep, opt, err
}

// ProfileExecution runs only the profiling stages (no feedback),
// returning the raw folded artifacts.
func ProfileExecution(prog *Program) (*ExecutionProfile, error) {
	return core.Run(prog, core.DefaultRunOptions())
}

// Workloads lists the names of every bundled workload twin.
func Workloads() []string { return workloads.Names() }

// AnalyzeStatic runs the Polly-like static affine-region baseline.
func AnalyzeStatic(prog *Program) *StaticResult { return staticpoly.Analyze(prog) }

// DefaultCostModel returns the replay cost model mirroring the paper's
// testbed (12 cores, SSE-width vectors, 32 KiB L1).
func DefaultCostModel() CostModel { return feedback.DefaultCostModel() }

// Rodinia returns the 19 bundled Rodinia 3.1 benchmark twins in the
// paper's Table 5 order.
func Rodinia() []WorkloadSpec { return workloads.Rodinia() }

// Workload builds a bundled workload by name ("backprop", "bfs", ...,
// "gemsfdtd", "example1", "example2").
func Workload(name string) (*Program, error) {
	spec := workloads.ByName(name)
	if spec == nil {
		return nil, fmt.Errorf("polyprof: unknown workload %q", name)
	}
	return spec.Build(), nil
}

// RunBenchmark profiles one bundled workload end-to-end, including the
// static baseline and the Table 5 row.
func RunBenchmark(name string) (*BenchResult, error) {
	spec := workloads.ByName(name)
	if spec == nil {
		return nil, fmt.Errorf("polyprof: unknown workload %q", name)
	}
	return evaluation.RunWorkload(*spec)
}

// RunSuite profiles the whole Rodinia suite (the paper's Experiment I
// and II) and returns per-benchmark results.
func RunSuite() ([]*BenchResult, error) { return evaluation.RunRodinia() }

// RenderTable5 prints suite results in the layout of the paper's
// Table 5.
func RenderTable5(rows []*BenchResult) string { return evaluation.RenderTable5(rows) }

// TraceTable re-executes the program and renders its loop-event stream
// with the evolving dynamic interprocedural iteration vector — the
// paper's Fig. 3(d)/(i) trace tables.
func TraceTable(prog *Program) string {
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		return "error: " + err.Error()
	}
	p2 := core.NewPass2(prog, st, nil)
	var events []loopevents.Event
	p2.Events = &events
	if err := vm.New(prog, p2).Run(); err != nil {
		return "error: " + err.Error()
	}
	return iiv.TraceTable(events, iiv.ProgramNamer(prog))
}

// RenderScheduleTree prints the dynamic schedule tree of a profiled
// execution (heaviest paths first), hiding nodes below minOps dynamic
// operations.
func RenderScheduleTree(p *ExecutionProfile, minOps uint64) string {
	return p.Tree.Render(iiv.ProgramNamer(p.Prog), minOps)
}
