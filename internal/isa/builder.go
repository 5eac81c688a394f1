package isa

import "fmt"

// ProgramBuilder incrementally assembles a Program.  Workloads use it as
// a tiny structured "compiler": loops, conditionals and calls are emitted
// as ordinary basic blocks with explicit jumps, so the finished image
// looks like optimized binary code to the analyses.
type ProgramBuilder struct {
	prog    *Program
	nextMem int64
	err     error
}

// NewProgram starts building a program with the given name.
func NewProgram(name string) *ProgramBuilder {
	return &ProgramBuilder{prog: &Program{
		Name:    name,
		Globals: map[string]Global{},
	}}
}

// Global allocates size words of memory under a symbolic name and
// returns the region descriptor.
func (pb *ProgramBuilder) Global(name string, size int64) Global {
	if size <= 0 {
		pb.fail(fmt.Errorf("global %q: non-positive size %d", name, size))
		size = 1
	}
	if _, dup := pb.prog.Globals[name]; dup {
		pb.fail(fmt.Errorf("global %q redeclared", name))
	}
	g := Global{Base: pb.nextMem, Size: size}
	pb.prog.Globals[name] = g
	pb.nextMem += size
	return g
}

// Func declares a new function and returns its builder.  The returned
// builder's ID is valid immediately, so mutually recursive functions can
// be declared first and filled in later.
func (pb *ProgramBuilder) Func(name string, numArgs int) *FuncBuilder {
	id := FuncID(len(pb.prog.Funcs))
	f := &Func{ID: id, Name: name, NumArgs: numArgs, NumRegs: numArgs, Entry: NoBlock}
	pb.prog.Funcs = append(pb.prog.Funcs, f)
	fb := &FuncBuilder{pb: pb, fn: f}
	fb.cur = fb.newBlock("entry")
	f.Entry = fb.cur.ID
	return fb
}

// SetMain selects the program entry point.
func (pb *ProgramBuilder) SetMain(f *FuncBuilder) { pb.prog.Main = f.fn.ID }

func (pb *ProgramBuilder) fail(err error) {
	if pb.err == nil {
		pb.err = err
	}
}

// Build finalizes and validates the program.
func (pb *ProgramBuilder) Build() (*Program, error) {
	if pb.err != nil {
		return nil, pb.err
	}
	pb.prog.MemWords = pb.nextMem
	if err := pb.prog.Validate(); err != nil {
		return nil, err
	}
	return pb.prog, nil
}

// MustBuild is Build that panics on error; workloads are static so a
// construction bug is a programming error.
func (pb *ProgramBuilder) MustBuild() *Program {
	p, err := pb.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// FuncBuilder emits code into one function.  It maintains a current
// block; structured statements (Loop, While, If, Call) split the block
// stream as needed.
type FuncBuilder struct {
	pb   *ProgramBuilder
	fn   *Func
	cur  *Block // nil after a terminator until a new block starts
	file string
	line int
}

// ID returns the function's identifier for use as a call target.
func (fb *FuncBuilder) ID() FuncID { return fb.fn.ID }

// SetFile sets the pseudo source file recorded on subsequent
// instructions.
func (fb *FuncBuilder) SetFile(file string) { fb.file = file }

// At sets the pseudo source line recorded on subsequent instructions.
func (fb *FuncBuilder) At(line int) { fb.line = line }

// SetSrcDepth declares the source-level loop depth of the function's
// main nest (the paper's ld-src column).
func (fb *FuncBuilder) SetSrcDepth(d int) { fb.fn.SrcDepth = d }

// Arg returns the register holding the i-th argument.
func (fb *FuncBuilder) Arg(i int) Reg {
	if i < 0 || i >= fb.fn.NumArgs {
		fb.pb.fail(fmt.Errorf("%s: arg %d out of range", fb.fn.Name, i))
		return 0
	}
	return Reg(i)
}

// NewReg allocates a fresh register.
func (fb *FuncBuilder) NewReg() Reg {
	r := Reg(fb.fn.NumRegs)
	fb.fn.NumRegs++
	return r
}

func (fb *FuncBuilder) newBlock(name string) *Block {
	b := &Block{
		ID:    BlockID(len(fb.pb.prog.Blocks)),
		Fn:    fb.fn.ID,
		Name:  fmt.Sprintf("%s.%s", fb.fn.Name, name),
		Index: len(fb.fn.Blocks),
	}
	fb.pb.prog.Blocks = append(fb.pb.prog.Blocks, b)
	fb.fn.Blocks = append(fb.fn.Blocks, b.ID)
	return b
}

// startBlock begins a new current block (after a terminator).
func (fb *FuncBuilder) startBlock(name string) *Block {
	b := fb.newBlock(name)
	fb.cur = b
	return b
}

func (fb *FuncBuilder) emit(in Instr) {
	if fb.cur == nil {
		// Code after Ret/Halt with no label: unreachable; give it a block
		// anyway so builders stay composable.
		fb.startBlock("dead")
	}
	in.Loc = SrcLoc{File: fb.file, Line: fb.line}
	fb.cur.Code = append(fb.cur.Code, in)
	if in.Op.IsTerminator() {
		fb.cur = nil
	}
}

// --- value helpers -------------------------------------------------------

// IConst materializes an integer constant into a fresh register.
func (fb *FuncBuilder) IConst(v int64) Reg {
	d := fb.NewReg()
	fb.emit(Instr{Op: ConstI, Dst: d, Imm: v})
	return d
}

// FConst materializes a float constant into a fresh register.
func (fb *FuncBuilder) FConst(v float64) Reg {
	d := fb.NewReg()
	fb.emit(Instr{Op: ConstF, Dst: d, FImm: v})
	return d
}

func (fb *FuncBuilder) bin(op Opcode, a, b Reg) Reg {
	d := fb.NewReg()
	fb.emit(Instr{Op: op, Dst: d, A: a, B: b})
	return d
}

func (fb *FuncBuilder) un(op Opcode, a Reg) Reg {
	d := fb.NewReg()
	fb.emit(Instr{Op: op, Dst: d, A: a})
	return d
}

// Integer arithmetic helpers; each returns a fresh destination register.

func (fb *FuncBuilder) Add(a, b Reg) Reg   { return fb.bin(Add, a, b) }
func (fb *FuncBuilder) Sub(a, b Reg) Reg   { return fb.bin(Sub, a, b) }
func (fb *FuncBuilder) Mul(a, b Reg) Reg   { return fb.bin(Mul, a, b) }
func (fb *FuncBuilder) Div(a, b Reg) Reg   { return fb.bin(Div, a, b) }
func (fb *FuncBuilder) Mod(a, b Reg) Reg   { return fb.bin(Mod, a, b) }
func (fb *FuncBuilder) And(a, b Reg) Reg   { return fb.bin(And, a, b) }
func (fb *FuncBuilder) Or(a, b Reg) Reg    { return fb.bin(Or, a, b) }
func (fb *FuncBuilder) Xor(a, b Reg) Reg   { return fb.bin(Xor, a, b) }
func (fb *FuncBuilder) Shl(a, b Reg) Reg   { return fb.bin(Shl, a, b) }
func (fb *FuncBuilder) Shr(a, b Reg) Reg   { return fb.bin(Shr, a, b) }
func (fb *FuncBuilder) MinI(a, b Reg) Reg  { return fb.bin(MinI, a, b) }
func (fb *FuncBuilder) MaxI(a, b Reg) Reg  { return fb.bin(MaxI, a, b) }
func (fb *FuncBuilder) CmpEQ(a, b Reg) Reg { return fb.bin(CmpEQ, a, b) }
func (fb *FuncBuilder) CmpNE(a, b Reg) Reg { return fb.bin(CmpNE, a, b) }
func (fb *FuncBuilder) CmpLT(a, b Reg) Reg { return fb.bin(CmpLT, a, b) }
func (fb *FuncBuilder) CmpLE(a, b Reg) Reg { return fb.bin(CmpLE, a, b) }
func (fb *FuncBuilder) CmpGT(a, b Reg) Reg { return fb.bin(CmpGT, a, b) }
func (fb *FuncBuilder) CmpGE(a, b Reg) Reg { return fb.bin(CmpGE, a, b) }

// AddImm returns a + imm, materializing the immediate.
func (fb *FuncBuilder) AddImm(a Reg, imm int64) Reg { return fb.Add(a, fb.IConst(imm)) }

// MulImm returns a * imm, materializing the immediate.
func (fb *FuncBuilder) MulImm(a Reg, imm int64) Reg { return fb.Mul(a, fb.IConst(imm)) }

// Float arithmetic helpers.

func (fb *FuncBuilder) FAdd(a, b Reg) Reg   { return fb.bin(FAdd, a, b) }
func (fb *FuncBuilder) FSub(a, b Reg) Reg   { return fb.bin(FSub, a, b) }
func (fb *FuncBuilder) FMul(a, b Reg) Reg   { return fb.bin(FMul, a, b) }
func (fb *FuncBuilder) FDiv(a, b Reg) Reg   { return fb.bin(FDiv, a, b) }
func (fb *FuncBuilder) FMin(a, b Reg) Reg   { return fb.bin(FMin, a, b) }
func (fb *FuncBuilder) FMax(a, b Reg) Reg   { return fb.bin(FMax, a, b) }
func (fb *FuncBuilder) FNeg(a Reg) Reg      { return fb.un(FNeg, a) }
func (fb *FuncBuilder) FAbs(a Reg) Reg      { return fb.un(FAbs, a) }
func (fb *FuncBuilder) FSqrt(a Reg) Reg     { return fb.un(FSqrt, a) }
func (fb *FuncBuilder) FExp(a Reg) Reg      { return fb.un(FExp, a) }
func (fb *FuncBuilder) FLog(a Reg) Reg      { return fb.un(FLog, a) }
func (fb *FuncBuilder) FCmpEQ(a, b Reg) Reg { return fb.bin(FCmpEQ, a, b) }
func (fb *FuncBuilder) FCmpLT(a, b Reg) Reg { return fb.bin(FCmpLT, a, b) }
func (fb *FuncBuilder) FCmpLE(a, b Reg) Reg { return fb.bin(FCmpLE, a, b) }
func (fb *FuncBuilder) I2F(a Reg) Reg       { return fb.un(I2F, a) }
func (fb *FuncBuilder) F2I(a Reg) Reg       { return fb.un(F2I, a) }

// Mov copies an integer register into dst (an explicit destination is
// needed for accumulators that live across loop iterations).
func (fb *FuncBuilder) Mov(dst, a Reg) { fb.emit(Instr{Op: Mov, Dst: dst, A: a}) }

// FMovTo copies a float register into dst.
func (fb *FuncBuilder) FMovTo(dst, a Reg) { fb.emit(Instr{Op: FMov, Dst: dst, A: a}) }

// SetI assigns an integer constant to an existing register.
func (fb *FuncBuilder) SetI(dst Reg, v int64) { fb.emit(Instr{Op: ConstI, Dst: dst, Imm: v}) }

// SetF assigns a float constant to an existing register.
func (fb *FuncBuilder) SetF(dst Reg, v float64) { fb.emit(Instr{Op: ConstF, Dst: dst, FImm: v}) }

// AddTo emits dst := a + b with an explicit destination.
func (fb *FuncBuilder) AddTo(dst, a, b Reg) { fb.emit(Instr{Op: Add, Dst: dst, A: a, B: b}) }

// FAddTo emits dst := a + b (float) with an explicit destination.
func (fb *FuncBuilder) FAddTo(dst, a, b Reg) { fb.emit(Instr{Op: FAdd, Dst: dst, A: a, B: b}) }

// Memory helpers.  addr is a register holding a word index; off a
// constant displacement.

func (fb *FuncBuilder) Load(addr Reg, off int64) Reg {
	d := fb.NewReg()
	fb.emit(Instr{Op: Load, Dst: d, A: addr, Imm: off, Index: NoReg})
	return d
}

func (fb *FuncBuilder) FLoad(addr Reg, off int64) Reg {
	d := fb.NewReg()
	fb.emit(Instr{Op: FLoad, Dst: d, A: addr, Imm: off, Index: NoReg})
	return d
}

func (fb *FuncBuilder) Store(addr Reg, off int64, val Reg) {
	fb.emit(Instr{Op: Store, A: addr, Imm: off, B: val, Dst: NoReg, Index: NoReg})
}

func (fb *FuncBuilder) FStore(addr Reg, off int64, val Reg) {
	fb.emit(Instr{Op: FStore, A: addr, Imm: off, B: val, Dst: NoReg, Index: NoReg})
}

// Indexed addressing variants: the effective address is base + idx +
// off, computed by the memory unit itself so the subscript does not
// enter the register dependence chains (like x86 base+index operands).

func (fb *FuncBuilder) LoadIdx(base, idx Reg, off int64) Reg {
	d := fb.NewReg()
	fb.emit(Instr{Op: Load, Dst: d, A: base, Index: idx, Imm: off})
	return d
}

func (fb *FuncBuilder) FLoadIdx(base, idx Reg, off int64) Reg {
	d := fb.NewReg()
	fb.emit(Instr{Op: FLoad, Dst: d, A: base, Index: idx, Imm: off})
	return d
}

func (fb *FuncBuilder) StoreIdx(base, idx Reg, off int64, val Reg) {
	fb.emit(Instr{Op: Store, A: base, Index: idx, Imm: off, B: val, Dst: NoReg})
}

func (fb *FuncBuilder) FStoreIdx(base, idx Reg, off int64, val Reg) {
	fb.emit(Instr{Op: FStore, A: base, Index: idx, Imm: off, B: val, Dst: NoReg})
}

// AddrOf computes the address of g[idx].
func (fb *FuncBuilder) AddrOf(g Global, idx Reg) Reg {
	return fb.Add(fb.IConst(g.Base), idx)
}

// Addr2 computes the address of g[i][j] for a row-major array with
// rowLen words per row.
func (fb *FuncBuilder) Addr2(g Global, i, j Reg, rowLen int64) Reg {
	row := fb.Mul(i, fb.IConst(rowLen))
	return fb.Add(fb.Add(fb.IConst(g.Base), row), j)
}

// --- control flow --------------------------------------------------------

// Loop emits a counted loop `for iv := lo; iv < hi; iv += step` around
// body.  lo and hi are registers (materialize constants with IConst);
// step must be positive.  The induction variable register is passed to
// the body callback.  The generated shape is the classic rotated-free
// while loop: preheader -> header(test) -> body... -> latch -> header,
// with a single exit from the header.
func (fb *FuncBuilder) Loop(name string, lo, hi Reg, step int64, body func(iv Reg)) {
	if step <= 0 {
		fb.pb.fail(fmt.Errorf("%s: loop %q with non-positive step %d", fb.fn.Name, name, step))
		step = 1
	}
	iv := fb.NewReg()
	fb.Mov(iv, lo)
	header := fb.newBlock(name + ".header")
	fb.emit(Instr{Op: Jmp, Dst: NoReg, Then: header.ID})

	fb.cur = header
	cond := fb.CmpLT(iv, hi)
	bodyBlk := fb.newBlock(name + ".body")
	exitBlk := fb.newBlock(name + ".exit")
	fb.emit(Instr{Op: Br, Dst: NoReg, A: cond, Then: bodyBlk.ID, Else: exitBlk.ID})

	fb.cur = bodyBlk
	body(iv)
	// Latch: advance and jump back.  body may have ended mid-block after
	// inner control flow; emit into whatever the current block is.
	stepReg := fb.IConst(step)
	fb.AddTo(iv, iv, stepReg)
	fb.emit(Instr{Op: Jmp, Dst: NoReg, Then: header.ID})

	fb.cur = exitBlk
}

// While emits a general while loop.  cond is called with the builder
// positioned in the header block and must return the condition register;
// body is emitted in the body block.  Use it for irregular loops whose
// bounds are not affine (worklists, convergence tests).
func (fb *FuncBuilder) While(name string, cond func() Reg, body func()) {
	header := fb.newBlock(name + ".header")
	fb.emit(Instr{Op: Jmp, Dst: NoReg, Then: header.ID})

	fb.cur = header
	c := cond()
	bodyBlk := fb.newBlock(name + ".body")
	exitBlk := fb.newBlock(name + ".exit")
	fb.emit(Instr{Op: Br, Dst: NoReg, A: c, Then: bodyBlk.ID, Else: exitBlk.ID})

	fb.cur = bodyBlk
	body()
	fb.emit(Instr{Op: Jmp, Dst: NoReg, Then: header.ID})

	fb.cur = exitBlk
}

// If emits a conditional with optional else branch (pass nil to omit).
func (fb *FuncBuilder) If(cond Reg, then func(), els func()) {
	thenBlk := fb.newBlock("if.then")
	joinBlk := fb.newBlock("if.join")
	elseID := joinBlk.ID
	var elseBlk *Block
	if els != nil {
		elseBlk = fb.newBlock("if.else")
		elseID = elseBlk.ID
	}
	fb.emit(Instr{Op: Br, Dst: NoReg, A: cond, Then: thenBlk.ID, Else: elseID})

	fb.cur = thenBlk
	then()
	if fb.cur != nil {
		fb.emit(Instr{Op: Jmp, Dst: NoReg, Then: joinBlk.ID})
	}
	if els != nil {
		fb.cur = elseBlk
		els()
		if fb.cur != nil {
			fb.emit(Instr{Op: Jmp, Dst: NoReg, Then: joinBlk.ID})
		}
	}
	fb.cur = joinBlk
}

// Call emits a call terminator and continues in a fresh continuation
// block; the callee's return value lands in the returned register.
func (fb *FuncBuilder) Call(callee FuncID, args ...Reg) Reg {
	d := fb.NewReg()
	cont := fb.newBlock("cont")
	fb.emit(Instr{Op: Call, Dst: d, Callee: callee, Args: append([]Reg(nil), args...), Then: cont.ID})
	fb.cur = cont
	return d
}

// Ret emits a return of the given register.
func (fb *FuncBuilder) Ret(v Reg) { fb.emit(Instr{Op: Ret, A: v, Dst: NoReg}) }

// RetVoid emits a return with no value.
func (fb *FuncBuilder) RetVoid() { fb.emit(Instr{Op: Ret, A: NoReg, Dst: NoReg}) }

// Halt stops the machine (only meaningful in main).
func (fb *FuncBuilder) Halt() { fb.emit(Instr{Op: Halt, Dst: NoReg}) }
