package core

import (
	"polyprof/internal/budget"
	"polyprof/internal/ddg"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/obs/sampler"
	"polyprof/internal/parddg"
	"polyprof/internal/progress"
	"polyprof/internal/vm"
)

// Options configures a full profiling run.
type Options struct {
	// DDG tunes dependence tracking (DefaultOptions when zero-valued
	// TrackAnti/TrackOutput/TrackReg are all false — pass
	// ddg.DefaultOptions() for the paper's configuration).
	DDG ddg.Options
	// InitMem optionally preloads the VM memory before each pass.
	InitMem func([]uint64)
	// Obs is the span-context the run records into: stage spans nest
	// under its parent span and all pipeline counters land in its
	// registry.  The zero Scope targets the process-wide default
	// registry, preserving the standalone behavior.
	Obs obs.Scope
	// Budget governs the run's resources (nil for unlimited).  Hard
	// limits (deadline, cancellation, steps, trace events) abort with a
	// *budget.Error; degrading limits (shadow bytes, DDG edges) coarsen
	// the graph — see ddg.Degradation.
	Budget *budget.Budget
	// ParallelDDG selects the parallel dependence engine with that many
	// shard workers (internal/parddg); 0 or negative keeps the in-line
	// builder.  Both run the same partition core and produce a
	// bit-for-bit identical graph on non-degraded runs.
	ParallelDDG int
	// Sampler, when non-nil and enabled, attaches the parallel-engine
	// utilization profiler to the sharded dependence engine (no effect
	// on sequential runs).
	Sampler *sampler.Sampler
	// Progress, when non-nil, receives live stage/event progress: pass 1
	// discovers the program's dynamic op count, pass 2 then reports
	// events against that exact total (the pipeline re-executes the
	// same deterministic program).
	Progress *progress.Tracker
	// EpochEvents chunks pass 2 into epochs of this many dynamic
	// instructions (streaming mode, see stream.go); 0 runs buffered.
	// Boundaries are exact op-counter multiples, so they land
	// identically on fresh and resumed attempts.
	EpochEvents uint64
	// OnEpoch, when non-nil alongside EpochEvents, receives each epoch
	// boundary: a provisional profile and (non-degraded runs) a
	// serialized checkpoint.  An error aborts the run.
	OnEpoch func(*Epoch) error
	// Resume, when non-nil, restores pass 2 from a decoded checkpoint
	// instead of starting at event zero (pass 1 still re-runs — it is
	// deterministic and provides the structure the checkpoint re-binds
	// against).  Either engine resumes a checkpoint taken by either, at
	// any shard count: the format does not record partitions.
	Resume *Checkpoint
}

// DefaultRunOptions returns the configuration used throughout the
// evaluation: all dependence kinds tracked.
func DefaultRunOptions() Options {
	return Options{DDG: ddg.DefaultOptions()}
}

// Profile is the complete result of running polyprof's first three
// stages on one program: the control structure, the dynamic schedule
// tree, and the folded dynamic dependence graph.
type Profile struct {
	Prog      *isa.Program
	Structure *Structure
	Tree      *iiv.Tree
	DDG       *ddg.Graph
	Stats     vm.Stats

	// Obs is the span-context the profile was recorded under;
	// downstream stages (sched-build, feedback-analyze) nest their
	// spans and metrics under it.
	Obs obs.Scope

	// Budget is the governing budget of the run (nil for unlimited);
	// downstream stages keep polling it.
	Budget *budget.Budget
}

// Run executes the two instrumented passes and folds the DDG.
func Run(prog *isa.Program, opts Options) (*Profile, error) {
	sc, bud, tr := opts.Obs, opts.Budget, opts.Progress
	tr.StartStage("pass1-structure", 0)
	st, err := analyzeStructure(prog, opts.InitMem, sc, bud, tr)
	if err != nil {
		return nil, err
	}
	if err := bud.Check("pass2"); err != nil {
		return nil, err
	}
	ddgOpts := opts.DDG
	ddgOpts.Obs = sc
	ddgOpts.Budget = bud
	var ec *epochConfig
	if opts.EpochEvents > 0 || opts.Resume != nil {
		ec = &epochConfig{events: opts.EpochEvents, cb: opts.OnEpoch, resume: opts.Resume}
		if bud.ShadowLimit() > 0 {
			// Bounded-memory mode: fold-and-release stale shadow records
			// at every boundary so the ceiling holds for arbitrarily long
			// traces.
			ddgOpts.Stream = true
		}
	}
	var sink InstrSink
	var finisher ddgFinisher
	var builder *ddg.Builder
	flush := func() error { return nil }
	if opts.ParallelDDG > 0 {
		eng := parddg.NewEngine(prog, parddg.Options{Shards: opts.ParallelDDG, DDG: ddgOpts, Sampler: opts.Sampler})
		// Close is idempotent and a no-op after FinishChecked; the defer
		// only matters when pass 2 errors out with worker goroutines
		// still running.
		defer eng.Close()
		sink, finisher, builder, flush = eng, eng, eng.Builder(), eng.Flush
	} else {
		builder = ddg.NewBuilder(prog, ddgOpts)
		sink, finisher = builder, builder
	}
	if opts.Resume != nil && opts.Resume.DDG != nil {
		if err := builder.Restore(opts.Resume.DDG); err != nil {
			return nil, err
		}
	}
	if ec != nil {
		ec.builder, ec.flush = builder, flush
	}
	// Pass 2 re-executes the same deterministic program, so pass 1's op
	// count is its exact expected total.
	tr.StartStage("pass2-ddg", st.Stats.Ops)
	p2, stats, err := runPass2(prog, st, sink, opts.InitMem, sc, bud, tr, ec)
	if err != nil {
		return nil, err
	}
	tr.StartStage("fold-finish", 0)
	g, err := finishFold(finisher, sc)
	if err != nil {
		return nil, err
	}
	return &Profile{
		Prog:      prog,
		Structure: st,
		Tree:      p2.Tree,
		DDG:       g,
		Stats:     stats,
		Obs:       sc,
		Budget:    bud,
	}, nil
}

// ddgFinisher is the fold stage of either dependence engine.
type ddgFinisher interface {
	FinishChecked() (*ddg.Graph, error)
}

// finishFold runs the fold stage under its span with panic recovery.
func finishFold(builder ddgFinisher, sc obs.Scope) (g *ddg.Graph, err error) {
	sp := sc.StartSpan("fold-finish")
	defer sp.End()
	defer RecoverStage("fold-finish", sp, &err)
	g, err = builder.FinishChecked()
	if err != nil {
		sp.Fail(err)
		return nil, err
	}
	sp.AddEvents(FoldedStreams(g))
	return g, nil
}

// FoldedStreams counts the folded streams of a finished DDG: one
// iteration-domain stream per statement, one value/access stream per
// instruction that produced one, and one dependence stream per emitted
// edge bundle.  It is the event count of the folding stage.
func FoldedStreams(g *ddg.Graph) uint64 {
	n := uint64(len(g.Stmts)) + uint64(len(g.Deps))
	for _, in := range g.Instrs {
		if in.HasValue() {
			n++
		}
		if in.HasAccess() {
			n++
		}
	}
	return n
}
