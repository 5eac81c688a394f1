package core

import (
	"polyprof/internal/budget"
	"polyprof/internal/ddg"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/parddg"
	"polyprof/internal/vm"
)

// Options configures a full profiling run.
type Options struct {
	// DDG tunes dependence tracking; the zero value is the paper's
	// configuration.
	DDG ddg.Options
	// Env is the run environment: span-context and budget, promoted as
	// opts.Obs and opts.Budget.
	Env
	// ParallelDDG selects the parallel dependence engine with that many
	// shard workers (internal/parddg); 0 or negative keeps the in-line
	// builder.  Both run the same partition core and produce a
	// bit-for-bit identical graph on non-degraded runs.
	ParallelDDG int
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
// evaluation: the zero Options.
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

	// Epochs is the ordinal of a streaming run's last epoch boundary (0
	// when buffered); ReleasedBytes totals the shadow budget this run's
	// boundaries returned.
	Epochs, ReleasedBytes uint64
}

// streaming reports whether pass 2 runs under the epoch driver.
func (o Options) streaming() bool { return o.EpochEvents > 0 || o.Resume != nil }

// Engine is the dependence stage of one run: the in-line ddg.Builder,
// or the sharded parddg.Engine when Options.ParallelDDG > 0.
type Engine struct {
	// Sink is the concrete engine.  Hand it to pass 2 unwrapped so
	// BatchSink detection sees the parallel engine's OnInstrBatch.
	Sink InstrSink
	// Builder is the partition core both engines run (the parallel
	// engine's sequencer): restore, epoch release and checkpoints go
	// through it.
	Builder *ddg.Builder
	// Flush makes Builder quiescent (drains the parallel pipeline) and
	// returns the engine's latched failure.
	Flush func() error
	// Close stops the parallel workers.  It is idempotent and a no-op
	// after Fold; it only matters when pass 2 errors out early.
	Close func()
	fin   interface{ FinishChecked() (*ddg.Graph, error) }
}

// NewEngine is the one place a run chooses its dependence engine; it
// also derives the ddg settings the run environment implies.
func NewEngine(prog *isa.Program, opts Options) *Engine {
	d := opts.DDG
	d.Obs, d.Budget = opts.Obs, opts.Budget
	if opts.streaming() && opts.Budget.ShadowLimit() > 0 {
		// Bounded-memory mode: fold-and-release stale shadow records at
		// every epoch boundary so the ceiling holds for arbitrarily
		// long traces.
		d.Stream = true
	}
	if opts.ParallelDDG > 0 {
		eng := parddg.NewEngine(prog, parddg.Options{Shards: opts.ParallelDDG, DDG: d})
		return &Engine{Sink: eng, Builder: eng.Builder(), Flush: eng.Flush, Close: eng.Close, fin: eng}
	}
	b := ddg.NewBuilder(prog, d)
	return &Engine{Sink: b, Builder: b, Flush: func() error { return nil }, Close: func() {}, fin: b}
}

// Fold runs the fold stage under its span with panic recovery.
func (e *Engine) Fold(sc obs.Scope) (g *ddg.Graph, err error) {
	sp := sc.StartSpan("fold-finish")
	defer sp.End()
	defer RecoverStage("fold-finish", sp, &err)
	g, err = e.fin.FinishChecked()
	if err != nil {
		sp.Fail(err)
		return nil, err
	}
	sp.AddEvents(FoldedStreams(g))
	return g, nil
}

// Run executes the two instrumented passes and folds the DDG.
func Run(prog *isa.Program, opts Options) (*Profile, error) {
	env := opts.Env
	st, err := AnalyzeStructure(prog, env)
	if err != nil {
		return nil, err
	}
	if err := env.Budget.Check("pass2"); err != nil {
		return nil, err
	}
	eng := NewEngine(prog, opts)
	defer eng.Close()
	if opts.Resume != nil && opts.Resume.DDG != nil {
		if err := eng.Builder.Restore(opts.Resume.DDG); err != nil {
			return nil, err
		}
	}
	var ec *epochConfig
	if opts.streaming() {
		ec = &epochConfig{events: opts.EpochEvents, cb: opts.OnEpoch, resume: opts.Resume, eng: eng}
	}
	p2, stats, err := runPass2(prog, st, eng.Sink, env, ec)
	if err != nil {
		return nil, err
	}
	g, err := eng.Fold(env.Obs)
	if err != nil {
		return nil, err
	}
	prof := &Profile{
		Prog:      prog,
		Structure: st,
		Tree:      p2.Tree,
		DDG:       g,
		Stats:     stats,
		Obs:       env.Obs,
		Budget:    env.Budget,
	}
	if ec != nil {
		prof.Epochs, prof.ReleasedBytes = ec.epochN, ec.released
	}
	return prof, nil
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
