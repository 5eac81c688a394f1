package transform

import (
	"polyprof/internal/cfg"
	"polyprof/internal/isa"
)

// loopShape is one recognized canonical counted loop:
//
//	preheader: ...; mov iv, lo; jmp header
//	header:    cmplt cond, iv, hi; br cond, body, exit
//	body:      ...
//	latch:     consti stepReg, step; add iv, iv, stepReg; jmp header
//
// which is exactly what the workload builder emits for Loop().  Any
// other shape (a descending CmpGE/Sub loop, While, manual
// CFGs) is refused rather than guessed at.
type loopShape struct {
	loop   *cfg.Loop
	header isa.BlockID
	body   isa.BlockID // the Br then-target
	exit   isa.BlockID // the Br else-target
	latch  isa.BlockID // block ending with the back-edge jump

	iv, lo, hi, cond isa.Reg
	step             int64

	headerLoc isa.SrcLoc // Loc of the header compare, for codegen
}

// nestInfo is a fully recognized perfectly-nested band: a chain of
// canonical loops where each outer body consists only of hoistable
// glue plus the inner loop, and the innermost body is a single
// straight-line block.
type nestInfo struct {
	fn     *isa.Func
	levels []loopShape // outermost to innermost
	// pre is the block that enters the chain (ends mov iv0, lo0; jmp
	// header0); the rewrite redirects its terminator.
	pre isa.BlockID
	// glue holds the loop-invariant setup instructions found between
	// the loops (address bases, hoisted constants), in original order;
	// the rewrite re-emits them once before the new nest.
	glue []isa.Instr
	// body holds the innermost body instructions without the trailing
	// 3-instruction latch.
	body []isa.Instr
	// bodyLoc is the Loc of the first body instruction.
	bodyLoc isa.SrcLoc
}

// recognize maps a chain of CFG loops (outermost to innermost, the
// suggested band) onto the canonical shape, or refuses with a
// structured reason.
func recognize(prog *isa.Program, loops []*cfg.Loop) (*nestInfo, *Refusal) {
	if len(loops) == 0 {
		return nil, refuse(RefuseNonCanonical, "empty band")
	}
	fn := prog.Func(loops[0].Fn)
	info := &nestInfo{fn: fn}

	// Pass 1: per-loop shape from the header block.
	for k, l := range loops {
		if l.Fn != fn.ID {
			return nil, refuse(RefuseImperfect, "band crosses functions")
		}
		h := prog.Block(l.Header)
		if len(h.Code) != 2 || h.Code[0].Op != isa.CmpLT || h.Code[1].Op != isa.Br ||
			h.Code[1].A != h.Code[0].Dst {
			return nil, refuse(RefuseNonCanonical,
				"loop %s: header is not a canonical cmplt/br counted-loop test", h.Name)
		}
		s := loopShape{
			loop:      l,
			header:    l.Header,
			body:      h.Code[1].Then,
			exit:      h.Code[1].Else,
			iv:        h.Code[0].A,
			hi:        h.Code[0].B,
			cond:      h.Code[0].Dst,
			headerLoc: h.Code[0].Loc,
		}
		// Find the two predecessors: the entry block (ends mov iv, lo;
		// jmp header) and the latch (ends consti/add/jmp).
		var entry, latch isa.BlockID = isa.NoBlock, isa.NoBlock
		for _, bid := range fn.Blocks {
			b := prog.Block(bid)
			t := b.Terminator()
			targets := func(id isa.BlockID) bool {
				switch t.Op {
				case isa.Jmp, isa.Call:
					return t.Then == id
				case isa.Br:
					return t.Then == id || t.Else == id
				}
				return false
			}
			if !targets(l.Header) {
				continue
			}
			if l.Contains(bid) {
				if latch != isa.NoBlock {
					return nil, refuse(RefuseNonCanonical, "loop %s: multiple back edges", h.Name)
				}
				latch = bid
			} else {
				if entry != isa.NoBlock {
					return nil, refuse(RefuseNonCanonical, "loop %s: multiple entry edges", h.Name)
				}
				entry = bid
			}
		}
		if entry == isa.NoBlock || latch == isa.NoBlock {
			return nil, refuse(RefuseNonCanonical, "loop %s: missing entry or back edge", h.Name)
		}
		eb := prog.Block(entry)
		n := len(eb.Code)
		if n < 2 || eb.Code[n-1].Op != isa.Jmp ||
			eb.Code[n-2].Op != isa.Mov || eb.Code[n-2].Dst != s.iv {
			return nil, refuse(RefuseNonCanonical,
				"loop %s: entry block does not initialize the induction register", h.Name)
		}
		s.lo = eb.Code[n-2].A
		lb := prog.Block(latch)
		m := len(lb.Code)
		if m < 3 || lb.Code[m-1].Op != isa.Jmp ||
			lb.Code[m-2].Op != isa.Add || lb.Code[m-2].Dst != s.iv || lb.Code[m-2].A != s.iv ||
			lb.Code[m-3].Op != isa.ConstI || lb.Code[m-3].Dst != lb.Code[m-2].B {
			return nil, refuse(RefuseNonCanonical,
				"loop %s: latch is not a constant-step increment (descending or irregular loop)", h.Name)
		}
		s.step = lb.Code[m-3].Imm
		if s.step <= 0 {
			return nil, refuse(RefuseNonCanonical, "loop %s: non-positive step %d", h.Name, s.step)
		}
		s.latch = latch
		if k == 0 {
			info.pre = entry
		} else if entry != info.levels[k-1].body {
			// The inner loop must be entered from the enclosing body
			// block, otherwise statements execute around it.
			return nil, refuse(RefuseImperfect,
				"loop %s is not entered directly from the enclosing loop body", h.Name)
		}
		info.levels = append(info.levels, s)
	}

	// Pass 2: perfect-nesting structure between levels.
	depth := len(info.levels)
	for k := 0; k < depth-1; k++ {
		outer, inner := &info.levels[k], &info.levels[k+1]
		// The outer body block holds only glue + the inner-loop entry
		// (mov iv, lo; jmp inner-header); pass 1 already verified the
		// inner loop is entered from exactly this block, so everything
		// before the trailing two instructions is glue.
		code := prog.Block(outer.body).Code
		for _, in := range code[:len(code)-2] {
			if in.Op.IsMem() || in.Op == isa.Call || in.Op.IsTerminator() {
				return nil, refuse(RefuseImperfect,
					"statement between loop %s and its inner loop", prog.Block(outer.header).Name)
			}
			info.glue = append(info.glue, in)
		}
		// The outer latch must be exactly the inner loop's exit block
		// and contain nothing but the increment: code after the inner
		// loop would make the nest imperfect.
		if outer.latch != inner.exit {
			return nil, refuse(RefuseImperfect,
				"loop %s: back edge does not follow directly from the inner loop's exit", prog.Block(outer.header).Name)
		}
		if len(prog.Block(outer.latch).Code) != 3 {
			return nil, refuse(RefuseImperfect,
				"statements after the inner loop inside loop %s", prog.Block(outer.header).Name)
		}
	}

	// Innermost body: one straight-line block that is its own latch.
	last := &info.levels[depth-1]
	if last.body != last.latch {
		return nil, refuse(RefuseImperfect,
			"innermost loop body spans multiple blocks (control flow in the body)")
	}
	bcode := prog.Block(last.body).Code
	info.body = append(info.body, bcode[:len(bcode)-3]...)
	if len(info.body) > 0 {
		info.bodyLoc = info.body[0].Loc
	}
	for _, in := range info.body {
		if in.Op == isa.Call {
			return nil, refuse(RefuseImperfect, "call in the innermost loop body")
		}
	}

	// Pass 3: the chain must account for every block of the outermost
	// band loop — any extra block means unrecognized control flow.
	chain := map[isa.BlockID]bool{}
	for k := range info.levels {
		s := &info.levels[k]
		chain[s.header] = true
		chain[s.body] = true
		chain[s.latch] = true
	}
	for bid := range loops[0].Blocks {
		if !chain[bid] {
			return nil, refuse(RefuseImperfect,
				"unrecognized block %s inside the nest", prog.Block(bid).Name)
		}
	}

	if ref := info.checkInvariance(prog, loops[0]); ref != nil {
		return nil, ref
	}
	return info, nil
}

// checkInvariance enforces rectangularity: loop bounds, steps and glue
// inputs must not be written anywhere inside the nest (outside the
// recognized induction updates and the glue itself).  This is what
// refuses triangular nests — an inner bound that reads the outer
// induction register sees it written by the outer latch.
func (info *nestInfo) checkInvariance(prog *isa.Program, outer *cfg.Loop) *Refusal {
	// writes counts register writes by nest instructions, excluding
	// the recognized machinery (header compares, latch increments,
	// entry movs) but including glue and body.
	writes := map[isa.Reg]int{}
	glueWrites := map[isa.Reg]int{}
	for _, in := range info.glue {
		if in.Op.WritesDst() {
			writes[in.Dst]++
			glueWrites[in.Dst]++
		}
	}
	for _, in := range info.body {
		if in.Op.WritesDst() {
			writes[in.Dst]++
		}
	}
	ivs := map[isa.Reg]bool{}
	for k := range info.levels {
		ivs[info.levels[k].iv] = true
	}

	// Bounds must be nest-invariant: either defined outside the nest or
	// produced exclusively by the (hoistable, separately validated)
	// glue.  A bound that is an induction register — or written by the
	// body — is a triangular/irregular nest.
	for k := range info.levels {
		s := &info.levels[k]
		for _, bound := range [2]isa.Reg{s.lo, s.hi} {
			if ivs[bound] {
				return refuse(RefuseNonRectangular,
					"bounds of loop %s read an induction register", prog.Block(s.header).Name)
			}
			if writes[bound] > 0 && glueWrites[bound] != writes[bound] {
				return refuse(RefuseNonRectangular,
					"bound of loop %s varies inside the nest", prog.Block(s.header).Name)
			}
		}
	}

	// Glue must be hoistable: each glue instruction's inputs are
	// either nest-invariant or produced by earlier glue, and its
	// output must not be written by anything else in the nest.
	produced := map[isa.Reg]bool{}
	var regbuf []isa.Reg
	for i := range info.glue {
		in := &info.glue[i]
		for _, r := range in.Uses(regbuf) {
			if ivs[r] {
				return refuse(RefuseNonRectangular,
					"setup between loops reads induction register r%d", r)
			}
			if writes[r] > 0 && !produced[r] {
				return refuse(RefuseNonRectangular,
					"setup between loops reads register r%d written inside the nest", r)
			}
		}
		if in.Op.WritesDst() {
			if writes[in.Dst] != glueWrites[in.Dst] {
				return refuse(RefuseNonRectangular,
					"setup register r%d is also written by the loop body", in.Dst)
			}
			produced[in.Dst] = true
		}
	}

	// The body must not write induction, bound or condition registers.
	for _, in := range info.body {
		if !in.Op.WritesDst() {
			continue
		}
		if ivs[in.Dst] {
			return refuse(RefuseNonCanonical,
				"loop body writes induction register r%d", in.Dst)
		}
		if glueWrites[in.Dst] > 0 {
			return refuse(RefuseNonRectangular,
				"loop body writes setup register r%d", in.Dst)
		}
		for k := range info.levels {
			s := &info.levels[k]
			if in.Dst == s.hi || in.Dst == s.lo || in.Dst == s.cond {
				return refuse(RefuseNonRectangular,
					"loop body writes a bound or condition register of loop %s", prog.Block(s.header).Name)
			}
		}
	}
	return nil
}
