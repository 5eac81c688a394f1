// Package core wires the polyprof stages into the end-to-end pipeline
// of the paper's Fig. 1: a first instrumented run recovers the
// interprocedural control structure (dynamic CFGs, call graph,
// loop-nesting forest, recursive-component-set); a second instrumented
// run streams loop events through the dynamic interprocedural iteration
// vector, builds the dynamic schedule tree, and feeds every dynamic
// instruction to the dependence stage.
package core

import (
	"errors"
	"fmt"

	"polyprof/internal/budget"
	"polyprof/internal/cfg"
	"polyprof/internal/cg"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/obs"
	"polyprof/internal/trace"
	"polyprof/internal/vm"
)

// StagePanic is the error RecoverStage returns for a panic contained
// inside a pipeline stage: "panic in <stage>: <value>".  An
// error-valued panic (injected fault, budget abort) unwraps to that
// error, so errors.As still classifies it.
type StagePanic struct {
	Stage string
	Value any // the recovered panic value
}

func (p *StagePanic) Error() string {
	return fmt.Sprintf("panic in %s: %v", p.Stage, p.Value)
}

func (p *StagePanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// RecoverStage converts a panic inside a pipeline stage into a
// *StagePanic and a failed span, so one hostile program or injected
// fault degrades a single run instead of killing the process.  Use as
//
//	defer sp.End()
//	defer core.RecoverStage(stage, sp, &err)
//
// (deferred after sp.End so it runs first and can fail the span).
func RecoverStage(stage string, sp *obs.Span, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	err := &StagePanic{Stage: stage, Value: r}
	sp.Fail(err)
	*errp = err
}

// Structure is the result of pass 1 ("Instrumentation I"): the
// interprocedural control structure of one execution.
type Structure struct {
	CFG       *cfg.Graph
	Forest    *cfg.Forest
	CallGraph *cg.Graph
	Comps     *cg.ComponentSet
	Stats     vm.Stats
}

// Env is the run environment every pipeline stage takes: the
// span-context it records into and the budget governing it.  The zero
// Env records into the default registry, unlimited.
type Env struct {
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
}

// machine builds the VM of one pass, running under env inside the
// pass's span sp: the VM publishes its live op count into sp, and its
// counters land in env's registry.
func (env Env) machine(prog *isa.Program, h trace.Hook, sp *obs.Span) *vm.Machine {
	m := vm.New(prog, h)
	m.Obs, m.Budget = env.Obs.WithSpan(sp), env.Budget
	return m
}

// errInitMem refuses a memory preload: no pipeline entry point
// supports one.
var errInitMem = errors.New("core: initMem is not supported")

// AnalyzeStructure executes the program once under control-event
// instrumentation and derives its control structure.
func AnalyzeStructure(prog *isa.Program, env Env) (st *Structure, err error) {
	sp := env.Obs.StartSpan("pass1-structure")
	defer sp.End()
	defer RecoverStage("pass1-structure", sp, &err)
	rec := cfg.NewRecorder(prog)
	m := env.machine(prog, rec, sp)
	if err := m.Run(); err != nil {
		sp.Fail(err)
		return nil, err
	}
	callGraph := cg.FromCallEdges(prog.Main, rec.CallEdges)
	return &Structure{
		CFG:       rec.G,
		Forest:    cfg.BuildForest(rec.G),
		CallGraph: callGraph,
		Comps:     cg.BuildComponents(callGraph),
		Stats:     m.Stats(),
	}, nil
}

// AnalyzeStructureScoped is AnalyzeStructure under the signature the
// benchmark module (bench/trace.go) compiles against; initMem must be
// nil.
func AnalyzeStructureScoped(prog *isa.Program, initMem func([]uint64), sc obs.Scope, bud *budget.Budget) (*Structure, error) {
	if initMem != nil {
		return nil, errInitMem
	}
	return AnalyzeStructure(prog, Env{Obs: sc, Budget: bud})
}

// InstrSink receives, for every executed instruction, the statement
// context and iteration-vector coordinates assigned by the IIV stage.
// The dependence-graph builder implements it; tests use lightweight
// sinks.
type InstrSink interface {
	// OnControl sees raw control events (before loop-event translation),
	// so sinks can mirror the call stack for register dependence
	// tracking.
	OnControl(ev trace.ControlEvent)
	// OnInstr is called per dynamic instruction with the current context
	// key and coordinates.  coords is only valid during the call.
	OnInstr(ctxKey string, coords []int64, ev trace.InstrEvent, in *isa.Instr)
}

// BatchSink is an optional InstrSink extension: a sink that also
// implements OnInstrBatch receives instruction events in per-context
// batches (one context key and coordinate vector shared by the whole
// batch, since the iteration vector only changes on control events).
// The sharded dependence engine implements it; Pass2 automatically
// drives such a sink through the VM's batched emission path.
type BatchSink interface {
	InstrSink
	// OnInstrBatch delivers a run of instruction events sharing one
	// context.  coords is only valid during the call; evs[i] pairs with
	// ins[i].
	OnInstrBatch(ctxKey string, coords []int64, evs []trace.InstrEvent, ins []*isa.Instr)
}

// Pass2 is the second instrumentation pass: loop events, IIVs, schedule
// tree, and fan-out to an InstrSink.
type Pass2 struct {
	Vector *iiv.Vector
	Tree   *iiv.Tree

	tr     *loopevents.Translator
	sink   InstrSink
	coords []int64
	// ctxKey is Vector.Key() of the current context, read from the
	// schedule-tree leaf every control event touches (the leaf computes
	// it once), so instruction events build no strings.
	ctxKey string

	// Events optionally records every loop event (used by the figure
	// reproduction tests; nil in production runs).
	Events *[]loopevents.Event
}

// NewPass2 builds the pass-2 hook for a program whose structure was
// recovered by AnalyzeStructure.
func NewPass2(prog *isa.Program, st *Structure, sink InstrSink) *Pass2 {
	p := &Pass2{Vector: iiv.NewVector(), Tree: iiv.NewTree(), sink: sink}
	p.tr = loopevents.NewTranslator(prog, st.Forest, st.Comps, p.emit)
	return p
}

// emit is the loop-event consumer: it advances the iteration vector and
// the schedule tree.  A method (not a closure) so checkpoint resume can
// hand the same consumer to a restored translator.
func (p *Pass2) emit(e loopevents.Event) {
	if p.Events != nil {
		*p.Events = append(*p.Events, e)
	}
	p.Vector.Apply(e)
	switch e.Kind {
	case loopevents.EnterLoop, loopevents.IterateLoop,
		loopevents.EnterRec, loopevents.IterCallRec, loopevents.IterRetRec:
		p.Tree.NoteIteration(p.Vector)
	}
}

// Control implements trace.Hook.
func (p *Pass2) Control(ev trace.ControlEvent) {
	if p.sink != nil {
		p.sink.OnControl(ev)
	}
	p.tr.Control(ev)
	p.ctxKey = p.Tree.Touch(p.Vector).CtxKey
}

// Instr implements trace.Hook.
func (p *Pass2) Instr(ev trace.InstrEvent, in *isa.Instr) {
	p.Tree.CountOp()
	if p.sink != nil {
		p.coords = p.Vector.Coords(p.coords[:0])
		p.sink.OnInstr(p.ctxKey, p.coords, ev, in)
	}
}

// pass2Batcher upgrades Pass2 to a trace.BatchHook when its sink
// consumes batches: the coordinates are computed and the sink called
// once per batch instead of once per instruction (sound because the VM
// flushes batches before every control event, and the iteration vector
// only changes on control events).
type pass2Batcher struct {
	*Pass2
	batch BatchSink
}

func (p pass2Batcher) InstrBatch(evs []trace.InstrEvent, ins []*isa.Instr) {
	p.Tree.CountOps(len(evs))
	p.Pass2.coords = p.Vector.Coords(p.Pass2.coords[:0])
	p.batch.OnInstrBatch(p.ctxKey, p.Pass2.coords, evs, ins)
}

// hook returns the trace.Hook to register with the VM: Pass2 itself,
// or the batching wrapper when the sink consumes batches.
func (p *Pass2) hook() trace.Hook {
	if bs, ok := p.sink.(BatchSink); ok {
		return pass2Batcher{Pass2: p, batch: bs}
	}
	return p
}

// RunPass2 executes the program a second time under full
// instrumentation and returns the pass-2 artifacts with the schedule
// tree finalized.
func RunPass2(prog *isa.Program, st *Structure, sink InstrSink, env Env) (*Pass2, vm.Stats, error) {
	return runPass2(prog, st, sink, env, nil)
}

// RunPass2Scoped is RunPass2 under the signature the benchmark module
// (bench/trace.go) compiles against; initMem must be nil.
func RunPass2Scoped(prog *isa.Program, st *Structure, sink InstrSink, initMem func([]uint64), sc obs.Scope, bud *budget.Budget) (*Pass2, vm.Stats, error) {
	if initMem != nil {
		return nil, vm.Stats{}, errInitMem
	}
	return RunPass2(prog, st, sink, Env{Obs: sc, Budget: bud})
}

// runPass2 is RunPass2, run under the streaming epoch driver
// (stream.go) when ec is non-nil: the VM pauses at epoch boundaries and
// resumes from a checkpoint when one is armed.
func runPass2(prog *isa.Program, st *Structure, sink InstrSink, env Env, ec *epochConfig) (p *Pass2, stats vm.Stats, err error) {
	name := "pass2-iiv"
	if sink != nil {
		name = "pass2-ddg"
	}
	// Pass 2 re-executes the same deterministic program, so pass 1's op
	// count is its exact expected total.
	sp := env.Obs.StartSpanTotal(name, st.Stats.Ops)
	defer sp.End()
	defer RecoverStage(name, sp, &err)
	p = NewPass2(prog, st, sink)
	m := env.machine(prog, p.hook(), sp)
	if ec != nil {
		if err := ec.arm(p, m, prog, st); err != nil {
			sp.Fail(err)
			return nil, vm.Stats{}, err
		}
	}
	if err := m.Run(); err != nil {
		sp.Fail(err)
		return nil, vm.Stats{}, err
	}
	p.Tree.Finalize()
	return p, m.Stats(), nil
}
