// Folder ownership assertions.  Folders are deliberately not
// concurrency-safe: every stream's points must arrive in their global
// sequential order, so each folder must be owned by exactly one
// goroutine at a time.  The dependence builder's partitions
// (internal/ddg, run concurrently by internal/parddg) rely on that
// ownership discipline for bit-for-bit equivalence at every partition
// count; these optional
// assertions turn a silent ownership violation (two goroutines folding
// into one stream) into an immediate panic.  Disabled they cost a
// single atomic load per Add/Finish; the parddg tests enable them.
package fold

import "sync/atomic"

// ownershipChecks gates the reentrancy assertions process-wide.
var ownershipChecks atomic.Bool

// SetOwnershipChecks toggles the concurrent-ownership assertions on
// every folder in the process.  Intended for tests of concurrent
// folder consumers; returns the previous setting.
func SetOwnershipChecks(on bool) bool { return ownershipChecks.Swap(on) }

// guard is a reentrancy detector embedded in Folder and MultiFolder.
type guard struct{ busy atomic.Bool }

func (g *guard) enter(what string) {
	if !g.busy.CompareAndSwap(false, true) {
		panic("fold: concurrent " + what + " — folder entered by a second goroutine; every stream must have exactly one owner")
	}
}

func (g *guard) leave() { g.busy.Store(false) }
