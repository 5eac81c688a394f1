// In-block register flow, derived instead of folded.  When an operand's
// value is defined earlier in the same block, with no redefinition in
// between, every dynamic instance of that (producer, consumer) pair
// joins two instructions of one block instance: same statement, equal
// coordinates.  Which operands have that shape is a static fact of the
// block's code (its in-block reaching definitions), so the sequencer
// skips them — no writer lookup, no bundle lookup, no fold — and the
// bundle is derived from the consumer statement's own fold:
//
//   - its one piece is the statement's domain labelled with the
//     instances' own coordinates.  Statements of blocks with in-block
//     pairs fold (coords, coords), so the label map is the canonical fit
//     the bundle's folder would have found (the fitter pivots on the
//     constant column first, so a coordinate the statement never varies
//     fits as a constant, not as the identity); Stmt.Domain drops it.
//   - its count is the consumer's execution count times the number of
//     its operands the producer defines.
//
// Statement streams take their point at the block's terminator, after
// every instruction of the instance, so a provisional clone taken at an
// epoch boundary inside a block (the VM pauses on an event grid) does
// not put a consumer instance that has not run yet into the bundle.
// FinishChecked adds the in-flight instance to the statement's domain
// and to the bundles whose consumer already ran in it.
//
// Derived bundles belong to the sequencer: it creates them at their
// consumer's first execution, in operand order, so the edge budget sees
// the same grant sequence as folded bundles would; a refused grant
// keeps today's per-event degraded box.  No partition holds them.
package ddg

import (
	"fmt"
	"sync/atomic"

	"polyprof/internal/fold"
	"polyprof/internal/isa"
)

// crossCheck makes every builder also fold each derived pair through a
// MultiFolder, as a folded bundle would, and FinishChecked compare the
// two.  Only the package's tests set it (export_test.go).
var crossCheck atomic.Bool

// inBlockDefs computes the in-block reaching definitions of a block's
// register uses: defs[j][u] is the index of the last instruction before
// j that writes the u-th use of Code[j] (in Uses order), or -1 when the
// value comes from outside the block.  A writer is what the sequencer's
// register table records: WritesDst with a real destination inside the
// frame, Call excluded (its result lands on return, in the next
// block).  defs[j] is nil when no use of instruction j has an in-block
// definition, and defs is nil when no instruction has one.
func inBlockDefs(blk *isa.Block, numRegs int) [][]int32 {
	var defs [][]int32
	last := map[isa.Reg]int32{}
	var uses []isa.Reg
	for j := range blk.Code {
		in := &blk.Code[j]
		uses = in.Uses(uses)
		var row []int32
		for u, r := range uses {
			i, ok := last[r]
			if !ok {
				continue
			}
			if row == nil {
				row = make([]int32, len(uses))
				for k := range row {
					row[k] = -1
				}
			}
			row[u] = i
		}
		if row != nil {
			if defs == nil {
				defs = make([][]int32, len(blk.Code))
			}
			defs[j] = row
		}
		if in.Op.WritesDst() && in.Dst != isa.NoReg && in.Op != isa.Call && int(in.Dst) < numRegs {
			last[in.Dst] = int32(j)
		}
	}
	return defs
}

// blockDefs returns block blk's in-block reaching definitions,
// computing them on the block's first use.
func (b *Builder) blockDefs(blk isa.BlockID) [][]int32 {
	defs, ok := b.defs[blk]
	if !ok {
		block := b.prog.Block(blk)
		defs = inBlockDefs(block, b.prog.Func(block.Fn).NumRegs)
		b.defs[blk] = defs
	}
	return defs
}

// multiplicity counts the operands of consumer index dst that producer
// index src defines in block defs.
func multiplicity(defs [][]int32, src, dst int32) uint64 {
	if defs == nil {
		return 0
	}
	var n uint64
	for _, i := range defs[dst] {
		if i == src {
			n++
		}
	}
	return n
}

// derive is the consumer's first execution reaching an operand whose
// in-block definition is src: it creates the bundle src -> dst (one per
// pair, however many operands share it) and, when the edge budget
// refuses it, lists it on the consumer for per-event box updates.
func (b *Builder) derive(src, dst *Instr, defs [][]int32) {
	key := depKey{src: src.ID, dst: dst.ID, kind: FlowReg}
	d, ok := b.derived[key]
	if !ok {
		d = &Dep{Src: src, Dst: dst, Kind: FlowReg}
		d.mult = multiplicity(defs, int32(src.Ref.Index), int32(dst.Ref.Index))
		if !b.opts.Budget.GrantEdges(1) {
			d.Degraded = true
			d.box = &coordBox{}
		}
		if b.checking && d.box == nil {
			d.check = fold.NewMultiFolder(dst.Depth, src.Depth, fold.DefaultMaxPieces)
		}
		b.derived[key] = d
		b.allDerived = append(b.allDerived, d)
	}
	if d.box != nil {
		// One entry per operand: the box counts every point, as a
		// folded bundle does.
		dst.boxed = append(dst.boxed, d)
	}
}

// inBlockOperand is the sequencer's work for an operand defined by src
// earlier in dst's block instance: the bundle on dst's first execution,
// and under the cross-check the point folded as a folded bundle would.
func (b *Builder) inBlockOperand(src, dst *Instr, defs [][]int32, coords []int64) {
	if dst.Count == 1 {
		b.derive(src, dst, defs)
	}
	if b.checking {
		if d := b.derived[depKey{src: src.ID, dst: dst.ID, kind: FlowReg}]; d.check != nil {
			d.check.Add(coords, coords)
		}
	}
}

// inFlight returns the statement instance the last event left open (an
// epoch boundary or an abort inside a block) and the index of its last
// executed instruction; nil when the last event was a terminator.
func (b *Builder) inFlight() (*Stmt, int32) {
	if b.last == nil || b.last.term {
		return nil, 0
	}
	return b.last.Stmt, int32(b.last.Ref.Index)
}

// finishStmts folds every statement domain.  A statement with in-block
// pairs yields its labelled piece in flow[s.ID] for its derived bundles;
// the statement with an in-flight instance also yields, in open, the
// piece without that instance, for the derived bundles whose consumer
// has not run in it yet.
func (b *Builder) finishStmts(stmts []*Stmt, check func() error) (flow []fold.Piece, open fold.Piece, err error) {
	flow = make([]fold.Piece, len(stmts))
	openStmt, _ := b.inFlight()
	for _, s := range stmts {
		if s == openStmt {
			if s.derives {
				open = s.folder.Clone().Finish()
			}
			s.folder.Add(b.openCoords, s.label(b.openCoords))
		}
		pc := s.folder.Finish()
		s.folder = nil
		if s.derives {
			flow[s.ID] = pc
		}
		pc.Fn = nil
		s.Domain = pc
		if err := check(); err != nil {
			return nil, fold.Piece{}, err
		}
	}
	return flow, open, nil
}

// finishDerived gives every derived bundle its count and pieces and
// appends the ones FinishChecked emits (no SCEV endpoint) to g.Deps.
// Under the cross-check every bundle, emitted or not, must equal what
// folding its points found.
func (b *Builder) finishDerived(g *Graph, flow []fold.Piece, open fold.Piece, check func() error) error {
	openStmt, openIdx := b.inFlight()
	for _, d := range b.allDerived {
		emit := !d.Src.IsSCEV && !d.Dst.IsSCEV
		if !emit && d.check == nil {
			continue
		}
		d.Count = d.mult * d.Dst.Count
		if d.box != nil {
			d.Pieces = []fold.Piece{d.box.piece()}
			d.box = nil
		} else {
			pc := flow[d.Dst.Stmt.ID]
			if d.Dst.Stmt == openStmt && int32(d.Dst.Ref.Index) > openIdx {
				pc = open
			}
			// Graph pieces are read-only: the bundles of a statement
			// share its polyhedron and label map.
			d.Pieces = []fold.Piece{pc}
		}
		if d.check != nil {
			if err := crossCheckDep(d); err != nil {
				return err
			}
		}
		if emit {
			g.Deps = append(g.Deps, d)
		}
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// crossCheckDep compares a derived bundle with the fold of its points.
func crossCheckDep(d *Dep) error {
	n := d.check.Points()
	folded := d.check.Finish()
	d.check = nil
	if d.Count != n || len(folded) != len(d.Pieces) {
		return fmt.Errorf("ddg: derived %v disagrees with its fold: %d points in %d pieces, folded %d in %d",
			d, d.Count, len(d.Pieces), n, len(folded))
	}
	for i, want := range folded {
		got := d.Pieces[i]
		if got.String() != want.String() || got.Points != want.Points || got.Exact != want.Exact {
			return fmt.Errorf("ddg: derived %v piece %d = %v (%d points), folded %v (%d points)",
				d, i, got, got.Points, want, want.Points)
		}
	}
	return nil
}

// derivedMult is the operand multiplicity of a src -> dst bundle of
// kind when it is derived, 0 when it is folded.
func (b *Builder) derivedMult(src, dst *Instr, kind Kind) uint64 {
	if kind != FlowReg || src.Stmt != dst.Stmt {
		return 0
	}
	return multiplicity(b.blockDefs(dst.Ref.Block), int32(src.Ref.Index), int32(dst.Ref.Index))
}

// restoreDerived installs a checkpointed derived bundle.  A derived
// bundle's count is its consumer's times d.mult and it folds nothing,
// so a folder (a state that folded every bundle) or another count is
// rejected; only the cross-check carries its folder across.
func (b *Builder) restoreDerived(d *Dep, ds DepState) error {
	if d.Count != d.mult*d.Dst.Count {
		return fmt.Errorf("ddg: checkpoint derived %v counts %d points, want %d", d, d.Count, d.mult*d.Dst.Count)
	}
	if ds.Folder != nil {
		if !b.checking {
			return fmt.Errorf("ddg: checkpoint derived %v carries a folder", d)
		}
		mf, err := fold.RestoreMultiFolder(*ds.Folder)
		if err != nil {
			return err
		}
		mf.Obs = b.opts.Obs
		d.check = mf
	}
	if (ds.Box != nil) != d.Degraded {
		return fmt.Errorf("ddg: checkpoint derived %v has a box but is not degraded, or the reverse", d)
	}
	if ds.Box != nil {
		d.box = restoreBox(*ds.Box)
		for range d.mult {
			d.Dst.boxed = append(d.Dst.boxed, d)
		}
	}
	b.derived[depKey{src: d.Src.ID, dst: d.Dst.ID, kind: FlowReg}] = d
	b.allDerived = append(b.allDerived, d)
	return nil
}

// checkDerivedRestored requires the derived bundle of every in-block
// operand of every instruction the checkpoint says has run: the
// sequencer creates them only at a consumer's first execution.
func (b *Builder) checkDerivedRestored(stmts []*blockVerts) error {
	for _, bv := range stmts {
		for j, local := range bv.defs {
			dst := bv.instrs[j]
			if dst == nil || dst.Count == 0 {
				continue
			}
			for _, i := range local {
				if i < 0 {
					continue
				}
				src := bv.instrs[i]
				if src == nil || b.derived[depKey{src: src.ID, dst: dst.ID, kind: FlowReg}] == nil {
					return fmt.Errorf("ddg: checkpoint lacks the derived bundle into I%d from index %d of its block", dst.ID, i)
				}
			}
		}
	}
	return nil
}
