package parddg

import (
	"fmt"

	"polyprof/internal/obs"
)

// worker is one shard: it runs partition id of the builder over every
// batch.
type worker struct {
	e  *Engine
	id int
	ch chan *batch
	sp *obs.Span // the shard actor
}

func newWorker(e *Engine, id int) *worker {
	return &worker{
		e:  e,
		id: id,
		ch: make(chan *batch, maxInflight),
		sp: e.sc.StartSpan(fmt.Sprintf("ddg.shard.%d", id)),
	}
}

// process runs both steps of one batch.  Every worker calls Done
// exactly once per batch — even in drain mode — so no worker's barrier
// Wait can hang after a failure.
func (w *worker) process(b *batch) {
	e := w.e
	if e.failed.Load() {
		b.wg.Done()
		e.recycle(b)
		return
	}
	w.run("resolve", func() { e.b.Resolve(w.id, b.events, &b.mem[w.id]) })
	b.wg.Done()
	// The stage barrier: this shard cannot fold until every shard has
	// resolved its memory events.
	b.wg.Wait()
	if !e.failed.Load() {
		w.run("fold", func() { e.b.Fold(w.id, b.events, b.regs.List, b.mem) })
	}
	e.recycle(b)
}

// run contains a panic in one step as an engine failure.
func (w *worker) run(step string, f func()) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok {
				err = fmt.Errorf("%v", r)
			}
			w.e.fail(fmt.Errorf("panic in parddg shard %d %s: %w", w.id, step, err))
		}
	}()
	f()
}
