package transform

import (
	"fmt"

	"polyprof/internal/isa"
)

// genLevel is one loop of the rewritten nest, outermost to innermost.
type genLevel struct {
	iv, lo, hi isa.Reg
	stepReg    isa.Reg // fresh register the latch loads the step into
	step       int64
	// setup is emitted in the enclosing block just before the loop
	// entry (tile-bound clamping for point loops).
	setup []isa.Instr
	loc   isa.SrcLoc
}

// rewrite clones the program and replaces the recognized nest with the
// transformed loop structure.  The original nest blocks become
// unreachable (the entry block's terminator is redirected); new blocks
// are appended with dense IDs, so the clone still encodes and
// validates.
func rewrite(orig *isa.Program, info *nestInfo, spec VariantSpec, tileSize int) (*isa.Program, error) {
	prog := orig.Clone()
	fn := prog.Func(info.fn.ID)

	levels, err := buildLevels(fn, info, spec, tileSize)
	if err != nil {
		return nil, err
	}

	newBlock := func(name string) *isa.Block {
		b := &isa.Block{
			ID:    isa.BlockID(len(prog.Blocks)),
			Fn:    fn.ID,
			Name:  name,
			Index: len(fn.Blocks),
		}
		prog.Blocks = append(prog.Blocks, b)
		fn.Blocks = append(fn.Blocks, b.ID)
		return b
	}

	// Entry: redirect the original preheader's jump into the new nest.
	pre := newBlock(fn.Name + ".opt.pre")
	ph := prog.Block(info.pre)
	t := ph.Terminator()
	if t.Op != isa.Jmp {
		return nil, fmt.Errorf("nest entry block %s does not end in jmp", ph.Name)
	}
	t.Then = pre.ID

	// Hoisted glue runs once, before the whole nest: the structural
	// gates proved every glue value loop-invariant.
	pre.Code = append(pre.Code, info.glue...)

	// Emit the loop chain.  cur is the block receiving the next
	// level's entry (setup; mov iv, lo; jmp header).
	cur := pre
	exit := info.levels[0].exit // where the whole nest continues
	headers := make([]*isa.Block, len(levels))
	for l := range levels {
		lv := &levels[l]
		cur.Code = append(cur.Code, lv.setup...)
		cur.Code = append(cur.Code,
			isa.Instr{Op: isa.Mov, Dst: lv.iv, A: lv.lo, B: isa.NoReg, Index: isa.NoReg, Loc: lv.loc})

		h := newBlock(fmt.Sprintf("%s.opt.h%d", fn.Name, l))
		headers[l] = h
		cur.Code = append(cur.Code,
			isa.Instr{Op: isa.Jmp, Then: h.ID, Else: isa.NoBlock, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Index: isa.NoReg, Callee: isa.NoFunc, Loc: lv.loc})

		cond := newReg(fn)
		body := newBlock(fmt.Sprintf("%s.opt.b%d", fn.Name, l))
		h.Code = append(h.Code,
			isa.Instr{Op: isa.CmpLT, Dst: cond, A: lv.iv, B: lv.hi, Index: isa.NoReg, Loc: lv.loc},
			isa.Instr{Op: isa.Br, A: cond, Dst: isa.NoReg, B: isa.NoReg, Index: isa.NoReg, Then: body.ID, Else: exit, Callee: isa.NoFunc, Loc: lv.loc})

		// The next level's exit block carries this level's latch.
		if l < len(levels)-1 {
			lat := newBlock(fmt.Sprintf("%s.opt.l%d", fn.Name, l))
			appendLatch(lat, lv, h.ID)
			exit = lat.ID
		}
		cur = body
	}

	// Innermost body: the original statements plus this level's latch.
	cur.Code = append(cur.Code, info.body...)
	appendLatch(cur, &levels[len(levels)-1], headers[len(headers)-1].ID)

	if fn.NumRegs > isa.MaxRegsPerFunc {
		return nil, fmt.Errorf("rewrite exceeds register frame limit (%d)", fn.NumRegs)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("rewritten program invalid: %w", err)
	}
	return prog, nil
}

// appendLatch emits the canonical constant-step latch into b.
func appendLatch(b *isa.Block, lv *genLevel, header isa.BlockID) {
	stepReg := lv.stepReg
	b.Code = append(b.Code,
		isa.Instr{Op: isa.ConstI, Dst: stepReg, Imm: lv.step, A: isa.NoReg, B: isa.NoReg, Index: isa.NoReg, Loc: lv.loc},
		isa.Instr{Op: isa.Add, Dst: lv.iv, A: lv.iv, B: stepReg, Index: isa.NoReg, Loc: lv.loc},
		isa.Instr{Op: isa.Jmp, Then: header, Else: isa.NoBlock, Dst: isa.NoReg, A: isa.NoReg, B: isa.NoReg, Index: isa.NoReg, Callee: isa.NoFunc, Loc: lv.loc})
}

func newReg(fn *isa.Func) isa.Reg {
	r := isa.Reg(fn.NumRegs)
	fn.NumRegs++
	return r
}

// buildLevels lays out the rewritten loop chain for the variant:
// interchange reorders the original loops; tiling adds a tile-loop
// layer (stepping by tileSize*step over the original range) above
// point loops clamped to their tile.
func buildLevels(fn *isa.Func, info *nestInfo, spec VariantSpec, tileSize int) ([]genLevel, error) {
	band := len(info.levels)
	// rel[i] is the band-relative original index of the i-th loop in
	// the new order.
	rel := make([]int, 0, band)
	if spec.Perm == nil {
		for i := 0; i < band; i++ {
			rel = append(rel, i)
		}
	} else {
		if len(spec.Perm) != band {
			return nil, fmt.Errorf("permutation names %d dimensions, band has %d", len(spec.Perm), band)
		}
		base := spec.Perm[0]
		for _, k := range spec.Perm {
			if k < base {
				base = k
			}
		}
		seen := make([]bool, band)
		for _, k := range spec.Perm {
			i := k - base
			if i < 0 || i >= band || seen[i] {
				return nil, fmt.Errorf("invalid band permutation %v", spec.Perm)
			}
			seen[i] = true
			rel = append(rel, i)
		}
	}

	var levels []genLevel
	if !spec.Tile {
		for _, i := range rel {
			s := &info.levels[i]
			levels = append(levels, genLevel{
				iv: s.iv, lo: s.lo, hi: s.hi, step: s.step, loc: s.headerLoc,
			})
		}
	} else {
		// Tile loops iterate tile origins over the original ranges.
		tileIVs := make([]isa.Reg, band)
		for _, i := range rel {
			s := &info.levels[i]
			tileIVs[i] = newReg(fn)
			levels = append(levels, genLevel{
				iv: tileIVs[i], lo: s.lo, hi: s.hi, step: int64(tileSize) * s.step, loc: s.headerLoc,
			})
		}
		// Point loops sweep one tile: iv from the tile origin to
		// min(origin + tileSize*step, hi).
		for _, i := range rel {
			s := &info.levels[i]
			span := newReg(fn)
			end := newReg(fn)
			bound := newReg(fn)
			setup := []isa.Instr{
				{Op: isa.ConstI, Dst: span, Imm: int64(tileSize) * s.step, A: isa.NoReg, B: isa.NoReg, Index: isa.NoReg, Loc: s.headerLoc},
				{Op: isa.Add, Dst: end, A: tileIVs[i], B: span, Index: isa.NoReg, Loc: s.headerLoc},
				{Op: isa.MinI, Dst: bound, A: end, B: s.hi, Index: isa.NoReg, Loc: s.headerLoc},
			}
			levels = append(levels, genLevel{
				iv: s.iv, lo: tileIVs[i], hi: bound, step: s.step, setup: setup, loc: s.headerLoc,
			})
		}
	}
	for l := range levels {
		levels[l].stepReg = newReg(fn)
	}
	return levels, nil
}
