// Streaming epoch driver.  A streaming run chunks pass 2 into epochs
// of EpochEvents dynamic instructions.  At every boundary — the VM
// quiescent, batches flushed — the driver:
//
//  1. releases stale shadow records back to the budget (with a shadow
//     ceiling: bounded-memory mode, see ddg.Options.Stream),
//  2. serializes a Checkpoint of the complete pass-2 state, which the
//     job layer persists through the WAL so a killed attempt resumes
//     from the last committed epoch instead of event zero,
//  3. hands both to OnEpoch, which may fold a deep clone of the live
//     state into a provisional Profile (Epoch.Provisional; epoch
//     summaries only ever ADD dependences relative to earlier epochs —
//     folding is monotone and releases only substitute conservative
//     supersets).  The fold costs a clone and a finish of the whole
//     builder, so it runs only when the callback asks for it.
//
// Epoch boundaries are deterministic (exact multiples of EpochEvents in
// the VM's op counter), so they land identically on fresh and resumed
// attempts — the invariant behind resume-exactness: the final report of
// a resumed run is byte-identical to an uninterrupted one, on either
// engine.
//
// Both engines expose the same ddg.Builder state; the parallel engine
// first flushes its pipeline so its partitions are quiescent, and a
// failed engine (whose workers skip every later batch) aborts the
// boundary before anything is released, folded or saved.  Every step
// above is then the builder's, so either engine streams, releases,
// folds and checkpoints alike.  Checkpoints pause while a budget is
// degraded (the checkpoint format keeps neither refused events nor
// refused bytes, so a resumed run could not report the same
// degradation).
package core

import (
	"encoding/json"
	"fmt"

	"polyprof/internal/ddg"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/vm"
)

// Checkpoint is the complete serialized pass-2 state at an epoch
// boundary.  Control structure is NOT stored: pass 1 is deterministic
// and ~10x cheaper than pass 2, so a resumed attempt re-derives the
// forest/component set and re-binds the checkpoint's IDs against it.
type Checkpoint struct {
	// Epoch is the 1-based ordinal of the boundary this checkpoint was
	// taken at; Events is the VM op counter there.
	Epoch  uint64 `json:"epoch"`
	Events uint64 `json:"events"`

	VM         *vm.State                  `json:"vm"`
	Vector     iiv.VectorState            `json:"vector"`
	Tree       iiv.TreeState              `json:"tree"`
	Translator loopevents.TranslatorState `json:"translator"`
	// DDG is nil for iiv-only runs (no dependence sink).
	DDG *ddg.BuilderState `json:"ddg,omitempty"`
}

// DecodeCheckpoint parses a serialized checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint: %w", err)
	}
	if ck.VM == nil {
		return nil, fmt.Errorf("core: checkpoint has no VM state")
	}
	if ck.DDG != nil && ck.DDG.Format != ddg.StateFormat {
		// An older builder folded state this one derives; resuming
		// is an optimization, so the attempt starts from event zero.
		return nil, fmt.Errorf("core: checkpoint dependence state has format %d, want %d", ck.DDG.Format, ddg.StateFormat)
	}
	return &ck, nil
}

// Epoch is what OnEpoch receives at each boundary.
type Epoch struct {
	// N is the 1-based epoch ordinal (resumed runs continue the
	// ordinals of the checkpoint they started from); Events is the VM op
	// counter at the boundary.
	N      uint64
	Events uint64
	// ReleasedBytes is the shadow budget returned at this boundary
	// (bounded-memory streaming only).
	ReleasedBytes uint64
	// Checkpoint is the serialized Checkpoint, nil when the run is not
	// checkpointable (degraded budget or latched fault).
	Checkpoint []byte

	ec *epochConfig
}

// Provisional folds a deep clone of the live state into the profile of
// everything seen so far; its dependence set can only grow in later
// epochs.  It is valid only during the OnEpoch callback, while the
// machine is paused at the boundary.  The clone carries no budget and a
// detached disabled registry, so the live run's accounting and metrics
// are untouched.
func (ep *Epoch) Provisional() (*Profile, error) {
	ec := ep.ec
	g, err := ec.eng.Builder.Clone().FinishChecked()
	if err != nil {
		return nil, fmt.Errorf("core: provisional fold at epoch %d: %w", ep.N, err)
	}
	tree := ec.p.Tree.Clone()
	tree.Finalize()
	return &Profile{
		Prog:      ec.prog,
		Structure: ec.st,
		Tree:      tree,
		DDG:       g,
		Stats:     ec.m.Stats(),
	}, nil
}

// epochConfig is the driver state threaded from Run into runPass2.
type epochConfig struct {
	events uint64
	cb     func(*Epoch) error
	resume *Checkpoint
	eng    *Engine

	prog *isa.Program
	st   *Structure

	p      *Pass2
	m      *vm.Machine
	epochN uint64
	// released totals the shadow bytes this run's boundaries returned.
	released uint64
}

// arm installs the epoch hook on the machine and, when a checkpoint is
// armed, restores every pass-2 layer from it.
func (ec *epochConfig) arm(p *Pass2, m *vm.Machine, prog *isa.Program, st *Structure) error {
	ec.p, ec.m, ec.prog, ec.st = p, m, prog, st
	m.EpochEvents = ec.events
	m.OnEpoch = ec.fire
	ck := ec.resume
	if ck == nil {
		return nil
	}
	res := iiv.NewElemResolver(st.Forest, st.Comps)
	v, err := iiv.RestoreVector(ck.Vector, res)
	if err != nil {
		return err
	}
	t, err := iiv.RestoreTree(ck.Tree, res)
	if err != nil {
		return err
	}
	tr, err := loopevents.RestoreTranslator(prog, st.Forest, st.Comps, p.emit, ck.Translator)
	if err != nil {
		return err
	}
	p.Vector, p.Tree, p.tr = v, t, tr
	p.ctxKey = v.Key()
	m.Restore(ck.VM)
	ec.epochN = ck.Epoch
	return nil
}

// fire runs at one epoch boundary, on the VM goroutine, with the
// machine quiescent.  Any error (including injected faults in the fold
// or checkpoint paths) aborts the attempt; the job layer retries from
// the last checkpoint that committed.
func (ec *epochConfig) fire(events uint64) error {
	ec.epochN++
	if err := ec.eng.Flush(); err != nil {
		// The engine skipped batches since it failed: the builder is
		// missing events, so nothing may be released, folded or saved.
		return fmt.Errorf("core: dependence engine at epoch %d: %w", ec.epochN, err)
	}
	released := ec.eng.Builder.ReleaseEpoch()
	ec.released += released
	if ec.cb == nil {
		return nil
	}
	ep := &Epoch{N: ec.epochN, Events: events, ReleasedBytes: released, ec: ec}
	if ec.eng.Builder.Checkpointable() {
		data, err := ec.checkpoint(events)
		if err != nil {
			return fmt.Errorf("core: checkpoint at epoch %d: %w", ec.epochN, err)
		}
		ep.Checkpoint = data
	}
	return ec.cb(ep)
}

// checkpoint serializes the full pass-2 cut at this boundary.
func (ec *epochConfig) checkpoint(events uint64) ([]byte, error) {
	bs, err := ec.eng.Builder.State()
	if err != nil {
		return nil, err
	}
	ck := Checkpoint{
		Epoch:      ec.epochN,
		Events:     events,
		VM:         ec.m.Snapshot(),
		Vector:     ec.p.Vector.State(),
		Tree:       ec.p.Tree.State(),
		Translator: ec.p.tr.State(),
		DDG:        bs,
	}
	return json.Marshal(&ck)
}
