// Epoch support for the parallel engine is one method: Flush, the
// pipeline barrier that makes the builder's partitions quiescent.
// Streaming runs call it at every epoch boundary and then use the
// builder exactly as the sequential driver does — release stale
// records, clone for the provisional report, serialize a checkpoint —
// so parallel runs checkpoint, resume and stream under a shadow ceiling
// with the same checkpoint format as sequential ones.
package parddg

// Flush is a non-terminal pipeline barrier: it ships the partial batch
// and blocks until every in-flight batch has been fully processed and
// recycled.  On return the shard workers are idle (blocked on their
// channels) and the builder reflects every event added so far —
// receiving the idle batches from the free list is the happens-before
// edge — so the builder may be read or changed until the next event.
//
// Flush returns the engine's failure, if any: after one the workers
// skip every later batch, so the builder is missing events and must not
// be checkpointed or folded.
func (e *Engine) Flush() error {
	if e.drained {
		return e.failure()
	}
	e.dispatch()
	// The sequencer holds exactly one allocated batch (e.cur); the other
	// allocated-1 are in flight or idle.  Draining them from the free
	// list waits for the in-flight ones; pushing them back restores the
	// pool untouched.
	n := e.allocated - 1
	if n <= 0 {
		return e.failure()
	}
	hold := make([]*batch, 0, n)
	t0 := e.now()
	for i := 0; i < n; i++ {
		hold = append(hold, <-e.free)
	}
	block(e.root, t0)
	for _, b := range hold {
		e.free <- b
	}
	return e.failure()
}
