// Epoch support for streaming profiling, in three parts:
//
//   - Clone: a deep copy of the whole builder so a provisional report
//     can run the (destructive) FinishChecked pipeline at an epoch
//     boundary while the live builder keeps folding the stream.
//
//   - State/Restore: exact checkpoint serialization.  Vertices are
//     keyed by (context, block/instruction ref) — both re-derivable
//     from the program image — and folders persist via the fold state
//     format, so a restored builder continues the stream bit-for-bit.
//     The format does not record partitions: shadow records are listed
//     by address, bundles in canonical order, so a checkpoint taken
//     with N partitions restores into a builder with any other N.
//
//   - Fold-and-release (Options.Stream): at every epoch boundary,
//     shadow records untouched during the closing epoch fold into their
//     range summaries (degrade.go) and their bytes return to the
//     budget.  A later access whose exact counterpart record was
//     released pulls a conservative bounding-box dependence from the
//     summary — over-approximate in the sound direction (only ADDS
//     dependences).  A release alone does not degrade the summary, and
//     the graph is not marked Degraded, because no information was lost
//     that the summaries do not cover.
//
// All three run between batches: the parallel engine flushes its
// pipeline first, so every partition is quiescent.
package ddg

import (
	"fmt"
	"sort"

	"polyprof/internal/fold"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/trace"
)

// ---------------------------------------------------------------------
// Provisional clone.

// Clone deep-copies the builder so FinishChecked can run on the copy
// (for a provisional epoch report) without disturbing the live stream.
// The clone carries no budget, so finishing it can neither abort nor
// charge the live run, and publishes metrics into a detached, disabled
// registry.  Shadow records, frames and pending linkage are only
// consulted by the event path, never by Finish; the clone exists to be
// finished, so it has none.
func (b *Builder) Clone() *Builder {
	opts := b.opts
	opts.Budget = nil
	opts.Obs = obs.NewRegistry().Scope()
	c := newBuilder(b.prog, opts, len(b.parts), nil)
	c.totalOps, c.memOps, c.fpOps = b.totalOps, b.memOps, b.fpOps
	c.curRegWords, c.peakRegWords = b.curRegWords, b.peakRegWords
	c.epochN, c.releasedBytes = b.epochN, b.releasedBytes
	c.inline = b.inline
	c.checking = b.checking
	c.pinTripped = b.opts.Budget.Tripped()
	cloneFolder := func(f *fold.Folder) *fold.Folder {
		if f == nil {
			return nil
		}
		cf := f.Clone()
		cf.Obs = opts.Obs
		return cf
	}
	sm := make(map[*Stmt]*Stmt, len(b.allStmts))
	for _, s := range b.allStmts {
		cs := new(Stmt)
		*cs = *s
		cs.folder = cloneFolder(s.folder)
		sm[s] = cs
		c.allStmts = append(c.allStmts, cs)
	}
	im := make(map[*Instr]*Instr, len(b.allInst))
	for _, i := range b.allInst {
		ci := new(Instr)
		*ci = *i
		ci.Stmt = sm[i.Stmt]
		ci.valueFolder = cloneFolder(i.valueFolder)
		ci.accessFolder = cloneFolder(i.accessFolder)
		ci.boxed = nil // a clone is only finished, never sequenced
		im[i] = ci
		c.allInst = append(c.allInst, ci)
	}
	if b.last != nil {
		c.last = im[b.last]
		c.openCoords = append([]int64(nil), b.openCoords...)
	}
	for _, d := range b.allDerived {
		cd := &Dep{Src: im[d.Src], Dst: im[d.Dst], Kind: d.Kind, Degraded: d.Degraded, mult: d.mult}
		if d.box != nil {
			cd.box = cloneBox(d.box)
		}
		if d.check != nil {
			cd.check = d.check.Clone()
			cd.check.Obs = opts.Obs
		}
		c.derived[depKey{src: cd.Src.ID, dst: cd.Dst.ID, kind: cd.Kind}] = cd
		c.allDerived = append(c.allDerived, cd)
	}
	// A clone keeps its instructions' IDs, so summary entries stay in
	// ID order.
	cloneTab := func(tab []sumEntry) []sumEntry {
		out := make([]sumEntry, len(tab))
		for i := range tab {
			out[i] = sumEntry{instr: im[tab[i].instr], box: *cloneBox(&tab[i].box)}
		}
		return out
	}
	for pi, p := range b.parts {
		cp := c.parts[pi]
		cp.faultErr = p.faultErr
		cp.memEvents, cp.points = p.memEvents, p.points
		for _, d := range p.allDeps {
			cd := &Dep{Src: im[d.Src], Dst: im[d.Dst], Kind: d.Kind, Count: d.Count, Degraded: d.Degraded}
			if d.folder != nil {
				cd.folder = d.folder.Clone()
				cd.folder.Obs = opts.Obs
			}
			if d.box != nil {
				cd.box = cloneBox(d.box)
			}
			cp.addBundle(cd)
		}
		for k, s := range p.summ {
			cp.summ[k] = &rangeSummary{writers: cloneTab(s.writers), readers: cloneTab(s.readers), refused: s.refused}
		}
	}
	return c
}

func cloneBox(b *coordBox) *coordBox {
	return &coordBox{
		lo: append([]int64(nil), b.lo...),
		hi: append([]int64(nil), b.hi...),
		n:  b.n,
	}
}

// ---------------------------------------------------------------------
// Streaming fold-and-release.

// ReleaseEpoch closes one epoch in streaming mode: every shadow record
// not touched during the closing epoch folds into its range summary and
// returns its bytes to the budget; records touched this epoch survive
// into the next.  Reports the bytes released (0 when not
// streaming).  Called by the core epoch driver with the VM paused.
func (b *Builder) ReleaseEpoch() uint64 {
	if !b.opts.Stream {
		return 0
	}
	var freed uint64
	for lo := 0; lo < len(b.writers); lo += 1 << rangeShift {
		p := b.parts[b.partOf(int64(lo))]
		for a := lo; a < min(lo+1<<rangeShift, len(b.writers)); a++ {
			freed += p.release(a, &b.writers[a], true)
			freed += p.release(a, &b.readers[a], false)
		}
	}
	b.epochN++
	if freed > 0 {
		b.releasedBytes += freed
		b.opts.Budget.ReleaseShadow(freed)
	}
	return freed
}

// release folds rec, the record of address a, into its range summary
// when the closing epoch did not touch it, and reports the bytes freed.
func (p *partition) release(a int, rec *writerRec, write bool) uint64 {
	if rec.instr == nil || rec.seen >= p.b.epochN {
		return 0
	}
	p.summary(int64(a)).add(rec.instr, rec.coords, write)
	freed := rec.grant
	*rec = writerRec{}
	return freed
}

// ---------------------------------------------------------------------
// Checkpoint serialization.

// RecState is one live shadow record (last writer or last reader).
type RecState struct {
	Addr   int64   `json:"a"`
	Instr  int     `json:"i"`
	Coords []int64 `json:"c,omitempty"`
	Grant  uint64  `json:"g,omitempty"`
}

// RegState is one occupied register-writer slot.
type RegState struct {
	Slot   int     `json:"s"`
	Instr  int     `json:"i"`
	Coords []int64 `json:"c,omitempty"`
}

// FrameDepState is one mirrored call frame.
type FrameDepState struct {
	NumRegs int        `json:"n"`
	Regs    []RegState `json:"regs,omitempty"`
	RetDst  isa.Reg    `json:"retdst"`
}

// StmtState is one statement vertex with its live domain folder.
type StmtState struct {
	Block  isa.BlockID      `json:"blk"`
	Ctx    string           `json:"ctx"`
	Depth  int              `json:"depth"`
	Count  uint64           `json:"count"`
	Folder fold.FolderState `json:"folder"`
}

// InstrState is one instruction vertex with its live folders.
type InstrState struct {
	Ref    trace.InstrRef    `json:"ref"`
	Ctx    string            `json:"ctx"`
	Stmt   int               `json:"stmt"`
	Count  uint64            `json:"count"`
	Value  *fold.FolderState `json:"value,omitempty"`
	Access *fold.FolderState `json:"access,omitempty"`
}

// BoxState serializes a coordinate bounding box.
type BoxState struct {
	Lo []int64 `json:"lo,omitempty"`
	Hi []int64 `json:"hi,omitempty"`
	N  uint64  `json:"n"`
}

func boxState(b *coordBox) BoxState {
	return BoxState{Lo: append([]int64(nil), b.lo...), Hi: append([]int64(nil), b.hi...), N: b.n}
}

func restoreBox(s BoxState) *coordBox {
	return &coordBox{lo: append([]int64(nil), s.Lo...), hi: append([]int64(nil), s.Hi...), n: s.N}
}

// DepState is one dependence bundle.  A derived bundle (in-block
// register flow, derive.go) carries no folder: Restore recognizes it
// from the program and its count is its consumer's times its operand
// multiplicity.
type DepState struct {
	Src      int                    `json:"src"`
	Dst      int                    `json:"dst"`
	Kind     uint8                  `json:"kind"`
	Count    uint64                 `json:"count"`
	Degraded bool                   `json:"degraded,omitempty"`
	Folder   *fold.MultiFolderState `json:"folder,omitempty"`
	Box      *BoxState              `json:"box,omitempty"`
}

// StaleInstrState is one instruction's box inside a range summary.
type StaleInstrState struct {
	Instr int      `json:"i"`
	Box   BoxState `json:"box"`
}

// StaleRangeState is one range summary.
type StaleRangeState struct {
	Key     int64             `json:"k"`
	Writers []StaleInstrState `json:"w,omitempty"`
	Readers []StaleInstrState `json:"r,omitempty"`
}

// StateFormat versions BuilderState.  Format 1 derives in-block register
// flow: statements with in-block pairs fold labelled domains and derived
// bundles carry no folder.  States without it (format 0) folded every
// bundle and are not restored.
const StateFormat = 1

// BuilderState is the full serializable pass-2 dependence state at an
// epoch boundary.
type BuilderState struct {
	Format      int               `json:"format"`
	Stmts       []StmtState       `json:"stmts"`  // in ID order
	Instrs      []InstrState      `json:"instrs"` // in ID order
	Deps        []DepState        `json:"deps,omitempty"`
	Shadow      []RecState        `json:"shadow,omitempty"`
	LastRead    []RecState        `json:"lastread,omitempty"`
	Frames      []FrameDepState   `json:"frames"`
	PendingN    int               `json:"pn,omitempty"`
	PendingArgs []RegState        `json:"pargs,omitempty"`
	PendingDst  isa.Reg           `json:"pdst"`
	PendingRet  *RegState         `json:"pret,omitempty"`
	TotalOps    uint64            `json:"total"`
	MemOps      uint64            `json:"mem"`
	FPOps       uint64            `json:"fp"`
	PeakRegs    int               `json:"peakregs"`
	EpochN      uint64            `json:"epoch,omitempty"`
	Released    uint64            `json:"released,omitempty"`
	Stale       []StaleRangeState `json:"stale,omitempty"`
}

func recStates(recs []writerRec) []RecState {
	var out []RecState
	for a := range recs {
		if r := &recs[a]; r.instr != nil {
			out = append(out, RecState{Addr: int64(a), Instr: r.instr.ID,
				Coords: append([]int64(nil), r.coords...), Grant: r.grant})
		}
	}
	return out
}

func regState(slot int, w *writerRec) RegState {
	return RegState{Slot: slot, Instr: w.instr.ID, Coords: append([]int64(nil), w.coords...)}
}

func boxStates(tab []sumEntry) []StaleInstrState {
	var out []StaleInstrState
	for i := range tab {
		out = append(out, StaleInstrState{Instr: tab[i].instr.ID, Box: boxState(&tab[i].box)})
	}
	return out
}

// Checkpointable reports whether State would succeed: degraded runs
// (degraded summaries, tripped budgets, latched faults) are not
// serializable.  Summaries are checked apart from the budget because
// an injected shadow exhaustion refuses a record without tripping it.
func (b *Builder) Checkpointable() bool { return b.checkpointErr() == nil }

func (b *Builder) checkpointErr() error {
	for _, p := range b.parts {
		if p.faultErr != nil {
			return p.faultErr
		}
		for _, s := range p.summ {
			if s.refused > 0 {
				return errDegraded
			}
		}
	}
	if len(b.opts.Budget.Tripped()) > 0 {
		return errDegraded
	}
	return nil
}

var errDegraded = fmt.Errorf("ddg: run degraded under budget pressure; not checkpointable")

// State captures the builder for checkpointing.  Degraded runs refuse:
// the format keeps neither a summary's refused events nor the bytes the
// budget refused, so a resumed run could not report the same
// degradation; the epoch driver simply stops checkpointing once a
// budget trips.
func (b *Builder) State() (*BuilderState, error) {
	if err := b.checkpointErr(); err != nil {
		return nil, err
	}
	b.ensureFolders()
	s := &BuilderState{
		Format:   StateFormat,
		TotalOps: b.totalOps, MemOps: b.memOps, FPOps: b.fpOps,
		PeakRegs: b.peakRegWords, EpochN: b.epochN, Released: b.releasedBytes,
		Shadow: recStates(b.writers), LastRead: recStates(b.readers),
		PendingDst: b.pendingDst,
	}
	for _, st := range b.allStmts {
		s.Stmts = append(s.Stmts, StmtState{
			Block: st.Block, Ctx: st.Ctx, Depth: st.Depth, Count: st.Count,
			Folder: st.folder.State(),
		})
	}
	for _, i := range b.allInst {
		is := InstrState{Ref: i.Ref, Ctx: i.Ctx, Stmt: i.Stmt.ID, Count: i.Count}
		if i.valueFolder != nil {
			v := i.valueFolder.State()
			is.Value = &v
		}
		if i.accessFolder != nil {
			v := i.accessFolder.State()
			is.Access = &v
		}
		s.Instrs = append(s.Instrs, is)
	}
	deps := append([]*Dep(nil), b.allDerived...)
	stale := map[int64]*rangeSummary{}
	for _, p := range b.parts {
		deps = append(deps, p.allDeps...)
		for k, rg := range p.summ {
			stale[k] = rg
		}
	}
	sortDeps(deps)
	for _, d := range deps {
		ds := DepState{Src: d.Src.ID, Dst: d.Dst.ID, Kind: uint8(d.Kind), Count: d.Count, Degraded: d.Degraded}
		if d.mult > 0 {
			ds.Count = d.mult * d.Dst.Count
		}
		if d.folder != nil {
			f := d.folder.State()
			ds.Folder = &f
		}
		if d.check != nil {
			// Only under the cross-check: the resumed builder keeps
			// comparing against the fold of every point.
			f := d.check.State()
			ds.Folder = &f
		}
		if d.box != nil {
			bx := boxState(d.box)
			ds.Box = &bx
		}
		s.Deps = append(s.Deps, ds)
	}
	for fi := range b.frames {
		fr := &b.frames[fi]
		fs := FrameDepState{NumRegs: len(fr.regw), RetDst: fr.retDst}
		for slot := range fr.regw {
			if w := &fr.regw[slot]; w.instr != nil {
				fs.Regs = append(fs.Regs, regState(slot, w))
			}
		}
		s.Frames = append(s.Frames, fs)
	}
	s.PendingN = len(b.pendingArgs)
	for slot := range b.pendingArgs {
		if w := &b.pendingArgs[slot]; w.instr != nil {
			s.PendingArgs = append(s.PendingArgs, regState(slot, w))
		}
	}
	if b.pendingRet.instr != nil {
		rs := regState(0, &b.pendingRet)
		s.PendingRet = &rs
	}
	keys := make([]int64, 0, len(stale))
	for k := range stale {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		rg := stale[k]
		s.Stale = append(s.Stale, StaleRangeState{Key: k, Writers: boxStates(rg.writers), Readers: boxStates(rg.readers)})
	}
	return s, nil
}

// Restore loads checkpointed state into a freshly created builder (with
// any number of partitions) for the re-materialized program.  It
// re-charges the budget for every live record and edge, so resumed
// accounting matches the checkpointed run's.
func (b *Builder) Restore(s *BuilderState) error {
	if len(b.allStmts) > 0 || b.totalOps > 0 {
		return fmt.Errorf("ddg: restore into a builder that has seen events")
	}
	if s.Format != StateFormat {
		return fmt.Errorf("ddg: checkpoint state format %d, want %d", s.Format, StateFormat)
	}
	prog, opts := b.prog, b.opts
	b.totalOps, b.memOps, b.fpOps = s.TotalOps, s.MemOps, s.FPOps
	if s.EpochN > 0 {
		b.epochN = s.EpochN
	}
	b.releasedBytes = s.Released
	restoreFolder := func(fs fold.FolderState) (*fold.Folder, error) {
		f, err := fold.RestoreFolder(fs)
		if err != nil {
			return nil, err
		}
		f.Obs = opts.Obs
		return f, nil
	}
	stmtVerts := make([]*blockVerts, 0, len(s.Stmts))
	for _, ss := range s.Stmts {
		if ss.Block < 0 || int(ss.Block) >= len(prog.Blocks) {
			return fmt.Errorf("ddg: checkpoint stmt references unknown block %d", ss.Block)
		}
		f, err := restoreFolder(ss.Folder)
		if err != nil {
			return err
		}
		bv := b.addStmt(&Stmt{ID: len(b.allStmts), Block: ss.Block, Ctx: ss.Ctx, Depth: ss.Depth, Count: ss.Count, folder: f})
		if ss.Folder.LabelW != bv.stmt.labelW() {
			return fmt.Errorf("ddg: checkpoint stmt S%d folds labels of width %d, want %d", bv.stmt.ID, ss.Folder.LabelW, bv.stmt.labelW())
		}
		stmtVerts = append(stmtVerts, bv)
	}
	for _, is := range s.Instrs {
		if is.Stmt < 0 || is.Stmt >= len(stmtVerts) {
			return fmt.Errorf("ddg: checkpoint instr references unknown stmt %d", is.Stmt)
		}
		bv := stmtVerts[is.Stmt]
		if is.Ref.Block != bv.stmt.Block || is.Ctx != bv.stmt.Ctx {
			return fmt.Errorf("ddg: checkpoint instr in block %d is not in its stmt's block and context", is.Ref.Block)
		}
		blk := prog.Block(is.Ref.Block)
		if is.Ref.Index < 0 || int(is.Ref.Index) >= len(blk.Code) {
			return fmt.Errorf("ddg: checkpoint instr index %d out of range in block %q", is.Ref.Index, blk.Name)
		}
		i := b.newInstr(len(b.allInst), is.Ref, is.Ctx, &blk.Code[is.Ref.Index], bv.stmt)
		i.Count = is.Count
		if (is.Value != nil) != i.hasValue || (is.Access != nil) != i.hasAccess {
			return fmt.Errorf("ddg: checkpoint instr I%d folders do not match its instruction", i.ID)
		}
		var err error
		if is.Value != nil {
			if i.valueFolder, err = restoreFolder(*is.Value); err != nil {
				return err
			}
		}
		if is.Access != nil {
			if i.accessFolder, err = restoreFolder(*is.Access); err != nil {
				return err
			}
		}
		b.addInstr(bv, i)
	}
	instrAt := func(id int) (*Instr, error) {
		if id < 0 || id >= len(b.allInst) {
			return nil, fmt.Errorf("ddg: checkpoint references unknown instr I%d", id)
		}
		return b.allInst[id], nil
	}
	rec := func(id int, coords []int64) (writerRec, error) {
		i, err := instrAt(id)
		return writerRec{instr: i, coords: append([]int64(nil), coords...)}, err
	}
	for _, ds := range s.Deps {
		src, err := instrAt(ds.Src)
		if err != nil {
			return err
		}
		dst, err := instrAt(ds.Dst)
		if err != nil {
			return err
		}
		if ds.Kind > uint8(Anti) {
			return fmt.Errorf("ddg: checkpoint bundle I%d -> I%d has unknown kind %d", src.ID, dst.ID, ds.Kind)
		}
		d := &Dep{Src: src, Dst: dst, Kind: Kind(ds.Kind), Count: ds.Count, Degraded: ds.Degraded}
		p := b.parts[ownerOfDep(src.ID, dst.ID, d.Kind, len(b.parts))]
		if p.find(src, dst, d.Kind) != nil || b.derived[depKey{src: src.ID, dst: dst.ID, kind: d.Kind}] != nil {
			return fmt.Errorf("ddg: checkpoint repeats bundle %v", d)
		}
		if d.mult = b.derivedMult(src, dst, d.Kind); d.mult > 0 {
			if err := b.restoreDerived(d, ds); err != nil {
				return err
			}
			opts.Budget.GrantEdges(1)
			continue
		}
		if ds.Folder != nil {
			mf, err := fold.RestoreMultiFolder(*ds.Folder)
			if err != nil {
				return err
			}
			mf.Obs = opts.Obs
			d.folder = mf
		}
		if ds.Box != nil {
			d.box = restoreBox(*ds.Box)
		}
		opts.Budget.GrantEdges(1)
		p.addBundle(d)
	}
	if err := b.checkDerivedRestored(stmtVerts); err != nil {
		return err
	}
	// Every record surviving in a checkpoint was touched in the epoch
	// the checkpoint closed (ReleaseEpoch runs first), so it restores as
	// seen then: the next release treats it exactly as the
	// uninterrupted run does.
	seen := b.epochN
	if seen > 0 {
		seen--
	}
	restoreRecs := func(dst []writerRec, src []RecState) error {
		for _, rs := range src {
			if rs.Addr < 0 || rs.Addr >= int64(len(dst)) {
				return fmt.Errorf("ddg: checkpoint shadow address %d out of range", rs.Addr)
			}
			r, err := rec(rs.Instr, rs.Coords)
			if err != nil {
				return err
			}
			r.seen, r.grant = seen, rs.Grant
			if r.grant == 0 {
				r.grant = recBytes(len(rs.Coords))
			}
			// A refusal (a ceiling lowered since the checkpoint) trips
			// the budget; the record itself stays exact.
			opts.Budget.GrantShadow(r.grant)
			dst[rs.Addr] = r
		}
		return nil
	}
	if err := restoreRecs(b.writers, s.Shadow); err != nil {
		return err
	}
	if err := restoreRecs(b.readers, s.LastRead); err != nil {
		return err
	}
	b.frames = b.frames[:0]
	b.curRegWords = 0
	for _, fs := range s.Frames {
		fr := frame{regw: make([]writerRec, fs.NumRegs), retDst: fs.RetDst}
		for _, rs := range fs.Regs {
			if rs.Slot < 0 || rs.Slot >= fs.NumRegs {
				return fmt.Errorf("ddg: checkpoint register slot %d out of range", rs.Slot)
			}
			r, err := rec(rs.Instr, rs.Coords)
			if err != nil {
				return err
			}
			fr.regw[rs.Slot] = r
		}
		b.frames = append(b.frames, fr)
		b.curRegWords += fs.NumRegs
	}
	if len(b.frames) == 0 {
		return fmt.Errorf("ddg: checkpoint has no frames")
	}
	b.peakRegWords = max(s.PeakRegs, b.curRegWords)
	b.pendingArgs = make([]writerRec, s.PendingN)
	for _, rs := range s.PendingArgs {
		if rs.Slot < 0 || rs.Slot >= s.PendingN {
			return fmt.Errorf("ddg: checkpoint pending-arg slot %d out of range", rs.Slot)
		}
		r, err := rec(rs.Instr, rs.Coords)
		if err != nil {
			return err
		}
		b.pendingArgs[rs.Slot] = r
	}
	b.pendingDst = s.PendingDst
	if s.PendingRet != nil {
		r, err := rec(s.PendingRet.Instr, s.PendingRet.Coords)
		if err != nil {
			return err
		}
		b.pendingRet = r
	}
	for _, rg := range s.Stale {
		if !opts.Stream {
			return fmt.Errorf("ddg: checkpoint has stale summaries but streaming is off")
		}
		dst := &rangeSummary{}
		for _, tab := range []struct {
			in  []StaleInstrState
			out *[]sumEntry
		}{{rg.Writers, &dst.writers}, {rg.Readers, &dst.readers}} {
			for _, is := range tab.in {
				i, err := instrAt(is.Instr)
				if err != nil {
					return err
				}
				bx := entryBox(tab.out, i)
				if bx.n > 0 {
					return fmt.Errorf("ddg: checkpoint repeats I%d in stale range %d", i.ID, rg.Key)
				}
				*bx = *restoreBox(is.Box)
			}
		}
		b.parts[b.partOf(rg.Key<<rangeShift)].summ[rg.Key] = dst
	}
	return nil
}
