// Package parddg is the parallel dependence engine: a batch dispatcher
// that runs internal/ddg's shadow-partition core on N goroutines.  The
// pass-2 VM goroutine sequences every event (statement and instruction
// identity, dynamic counts, the register/frame mirror and the derived
// in-block register-flow bundles — ddg's Builder.Sequence) into a batch; N shard workers then take each batch
// through the partitions' two steps:
//
//  1. Resolve: each worker resolves the memory events of its address
//     partition against that partition's shadow records;
//  2. Fold: after a per-batch barrier, each worker folds, in event
//     order, the points of the streams its partition owns.
//
// Everything else — vertices, shadow memory, degradation, stale
// summaries, checkpoints, the final merge — is ddg's, and exists once.
// The engine's contract is therefore the builder's: on non-degraded
// runs the folded graph is byte-identical to the sequential one in the
// report JSON, for every N, because identity is sequential, every
// stream has one owner that sees its points in global order, and the
// merge sorts bundles canonically.  Degraded runs (shadow/edge budget
// exhaustion) are the one exemption — grant ordering is racy by
// nature — but degradation stays partition-local and the coarse
// regions remain a superset of the exact dependences.
package parddg

import (
	"fmt"
	"sync"
	"sync/atomic"

	"polyprof/internal/ddg"
	"polyprof/internal/faultinject"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/trace"
)

// Fault points for chaos testing the three concurrency boundaries.
var (
	dispatchFault = faultinject.Point("parddg.batch.dispatch")
	insertFault   = faultinject.Point("parddg.shard.insert")
	mergeFault    = faultinject.Point("parddg.merge")
)

// batchSize is the dispatch threshold: events accumulate on the
// sequencer until a batch this large ships to the shard workers.
const batchSize = 4096

// maxInflight bounds allocated batches; a full pipeline blocks the
// sequencer on the free list (backpressure) instead of growing memory.
// Each shard channel holds maxInflight batches, so a send never blocks.
const maxInflight = 8

// Options tunes the engine.
type Options struct {
	// Shards is the worker count (>= 1).
	Shards int
	// DDG carries the builder options (tracked kinds, stride detection,
	// obs scope, budget, streaming).
	DDG ddg.Options
}

// batch is one dispatch unit.  The same pointer goes to every worker:
// Resolve writes each partition's own point list, the WaitGroup is the
// Resolve/Fold barrier, and the done counter recycles the batch to the
// free list after the last worker finishes.
type batch struct {
	events []ddg.Event
	coords []int64      // context-coordinate arena shared by each run of events
	regs   ddg.Points   // register-flow points, resolved by the sequencer
	mem    []ddg.Points // memory points, one list per resolving partition

	wg   sync.WaitGroup
	done atomic.Int32
}

// Engine is the parallel dependence engine.  It implements
// core.InstrSink and core.BatchSink; all sink methods must be called
// from one goroutine (the pass-2 VM goroutine), like the sequential
// builder.
type Engine struct {
	b *ddg.Builder
	n int

	workers    []*worker
	chans      []chan *batch
	free       chan *batch
	allocated  int
	cur        *batch
	workerJoin sync.WaitGroup

	failMu  sync.Mutex
	failErr error
	failed  atomic.Bool

	// The engine's actors are spans: root is the sequencer, each
	// worker and the merge open a child.
	sc       obs.Scope // scope under the engine root span
	root     *obs.Span
	drained  bool
	finished bool
	closed   bool
}

// NewEngine creates an engine for one execution of prog and starts its
// workers.  Callers must eventually call FinishChecked or Close.
func NewEngine(prog *isa.Program, opt Options) *Engine {
	n := max(opt.Shards, 1)
	e := &Engine{
		b:    ddg.NewPartitioned(prog, opt.DDG, n, insertFault),
		n:    n,
		free: make(chan *batch, maxInflight),
	}
	e.root = opt.DDG.Obs.StartSpan("ddg-shards")
	e.sc = opt.DDG.Obs.WithSpan(e.root)
	e.cur = e.newBatch()
	e.allocated = 1
	for i := 0; i < n; i++ {
		w := newWorker(e, i)
		e.workers = append(e.workers, w)
		e.chans = append(e.chans, w.ch)
		e.workerJoin.Add(1)
		go func(w *worker) {
			defer e.workerJoin.Done()
			for b := range w.ch {
				w.process(b)
			}
		}(w)
	}
	return e
}

// Builder returns the dependence state the engine drives.  Read,
// release, clone or serialize it only while the pipeline is quiescent:
// before the first event or right after Flush.
func (e *Engine) Builder() *ddg.Builder { return e.b }

func (e *Engine) newBatch() *batch {
	return &batch{mem: make([]ddg.Points, e.n)}
}

// fail latches err as the engine's failure (a contained shard panic, a
// dispatch or merge fault, a merge error); the first one wins.
func (e *Engine) fail(err error) {
	if err == nil {
		return
	}
	e.failMu.Lock()
	if e.failErr == nil {
		e.failErr = err
	}
	e.failMu.Unlock()
	e.failed.Store(true)
}

func (e *Engine) failure() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

// OnControl implements core.InstrSink: the register/frame mirror is
// sequencer state.
func (e *Engine) OnControl(ev trace.ControlEvent) { e.b.OnControl(ev) }

// ctxCoords copies the current context coordinates into the current
// batch's arena; every event of the run shares the copy.
func (e *Engine) ctxCoords(coords []int64) []int64 {
	b := e.cur
	off := len(b.coords)
	b.coords = append(b.coords, coords...)
	return b.coords[off : off+len(coords)]
}

// OnInstrBatch implements core.BatchSink.
func (e *Engine) OnInstrBatch(ctxKey string, coords []int64, evs []trace.InstrEvent, ins []*isa.Instr) {
	cc := e.ctxCoords(coords)
	for i := range evs {
		if cc == nil {
			cc = e.ctxCoords(coords)
		}
		cc = e.addEvent(ctxKey, cc, evs[i], ins[i])
	}
}

// OnInstr implements core.InstrSink (the unbatched path).
func (e *Engine) OnInstr(ctxKey string, coords []int64, ev trace.InstrEvent, in *isa.Instr) {
	e.addEvent(ctxKey, e.ctxCoords(coords), ev, in)
}

// addEvent sequences one event into the current batch.  Returns the
// context-coordinate slice to use for the next event of the same run
// (nil after a dispatch, so the caller re-copies into the fresh batch).
func (e *Engine) addEvent(ctxKey string, cc []int64, ev trace.InstrEvent, in *isa.Instr) []int64 {
	b := e.cur
	b.events = append(b.events, e.b.Sequence(ctxKey, cc, ev, in, &b.regs, int32(len(b.events))))
	if len(b.events) >= batchSize {
		e.dispatch()
		return nil
	}
	return cc
}

// dispatch ships the current batch to every worker and takes a fresh
// one from the free list (blocking there is the pipeline's
// backpressure).
func (e *Engine) dispatch() {
	b := e.cur
	if len(b.events) == 0 {
		return
	}
	if err := dispatchFault.Hit(); err != nil {
		e.fail(fmt.Errorf("parddg: batch dispatch: %w", err))
	}
	b.done.Store(0)
	b.wg.Add(e.n)
	if sc := e.sc; sc.Enabled() {
		sc.Add("parddg.batches", 1)
		sc.Observe("parddg.batch.events", uint64(len(b.events)))
		// In-flight depth at dispatch: allocated batches minus the idle
		// ones (the freshly shipped batch counts).
		sc.Observe("parddg.batch.queue_depth", uint64(e.allocated-len(e.free)))
	}
	for _, ch := range e.chans {
		ch <- b
	}
	select {
	case nb := <-e.free:
		e.cur = nb
	default:
		if e.allocated < maxInflight {
			e.allocated++
			e.cur = e.newBatch()
		} else {
			// Pipeline backpressure: every allocated batch is still in
			// flight, so the sequencer stalls on the free list.
			e.cur = <-e.free
		}
	}
}

// recycle returns a fully processed batch to the free list; the last
// worker to finish resets it.
func (e *Engine) recycle(b *batch) {
	if b.done.Add(1) == int32(e.n) {
		b.events = b.events[:0]
		b.coords = b.coords[:0]
		b.regs.Reset()
		e.free <- b
	}
}

// drain flushes the partial batch, closes the worker channels and
// joins the workers.  Idempotent.
func (e *Engine) drain() {
	if e.drained {
		return
	}
	e.drained = true
	e.dispatch()
	for _, ch := range e.chans {
		close(ch)
	}
	e.workerJoin.Wait()
	for _, w := range e.workers {
		w.sp.End()
	}
}

// FinishChecked drains the pipeline and runs the builder's merge.
func (e *Engine) FinishChecked() (*ddg.Graph, error) {
	if e.finished {
		return nil, fmt.Errorf("parddg: engine already finished")
	}
	e.drain()
	g, err := e.merge()
	if err != nil {
		e.fail(err)
		err = e.failure()
	} else {
		e.root.AddEvents(g.TotalOps)
	}
	e.end(err)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// merge runs the builder's merge under the merge actor's span.
func (e *Engine) merge() (*ddg.Graph, error) {
	sp := e.sc.StartSpan("ddg-merge")
	defer sp.End()
	if err := mergeFault.Hit(); err != nil {
		e.fail(fmt.Errorf("parddg: merge: %w", err))
	}
	if e.failed.Load() {
		err := e.failure()
		sp.Fail(err)
		return nil, err
	}
	g, err := e.b.FinishChecked()
	sp.Fail(err)
	return g, err
}

// end closes the engine root with err's status.
func (e *Engine) end(err error) {
	e.root.Fail(err)
	e.root.End()
	e.finished = true
}

// Close aborts the engine without merging (idempotent; safe after
// FinishChecked).  Run drivers defer it so an error between pass 2 and
// Finish cannot leak the worker goroutines.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.drain()
	if !e.finished {
		e.end(nil)
	}
}
