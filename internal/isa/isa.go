// Package isa defines the instruction set, program representation and
// construction API for the small register machine that polyprof analyzes.
//
// The machine substitutes for the x86/ARM binaries the paper instruments
// through QEMU: it is deliberately "binary like".  Programs are flat lists
// of functions made of basic blocks; control transfers are explicit jump,
// branch, call and return terminators; data lives in an untyped register
// file and a flat word-addressed memory.  Nothing above this level (loop
// structure, induction variables, array shapes) is represented — polyprof
// must rediscover all of it dynamically, exactly as the paper's tool does.
package isa

import "fmt"

// Reg names a virtual register inside a function frame.  Registers are
// untyped 64-bit words; opcodes decide whether to interpret the bits as
// int64 or float64.  Register 0..NumArgs-1 receive the call arguments.
type Reg int32

// NoReg marks an unused register operand.
const NoReg Reg = -1

// FuncID identifies a function within a Program.
type FuncID int32

// NoFunc marks an unused function reference.
const NoFunc FuncID = -1

// BlockID identifies a basic block globally (across all functions) within
// a Program.  Global identifiers keep trace events and CFG algorithms free
// of (function, index) pairs.
type BlockID int32

// NoBlock marks an unused block reference.
const NoBlock BlockID = -1

// Opcode enumerates the machine's instructions.
type Opcode uint8

// Instruction opcodes.  The machine is a load/store architecture: only
// Load/Store/FLoad/FStore touch memory, every other operation works on
// registers.  Jmp, Br, Call, Ret and Halt are block terminators and may
// only appear as the last instruction of a block.
const (
	Nop Opcode = iota

	// Integer constants and moves.
	ConstI // dst := Imm
	Mov    // dst := a

	// Integer arithmetic, dst := a op b.
	Add
	Sub
	Mul
	Div // quotient, traps on b == 0
	Mod // remainder, traps on b == 0
	And
	Or
	Xor
	Shl
	Shr
	MinI
	MaxI

	// Integer comparisons, dst := a op b ? 1 : 0.
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE

	// Floating point constants and moves.
	ConstF // dst := FImm
	FMov   // dst := a

	// Floating point arithmetic, dst := a op b (FNeg/FAbs/FSqrt/FExp/FLog
	// are unary on a).
	FAdd
	FSub
	FMul
	FDiv
	FMin
	FMax
	FNeg
	FAbs
	FSqrt
	FExp
	FLog

	// Floating point comparisons, dst := a op b ? 1 : 0 (integer result).
	FCmpEQ
	FCmpLT
	FCmpLE

	// Conversions.
	I2F // dst := float64(int64(a))
	F2I // dst := int64(float64(a))

	// Memory.  Addresses are word indices into the flat memory; the
	// effective address is a + Index + Imm (Index is an optional index
	// register, NoReg when absent — the base+index addressing mode of
	// real ISAs, which keeps array subscripts out of the dependence
	// chains the way hardware addressing does).
	Load   // dst := mem[a + Index + Imm] (integer bits)
	Store  // mem[a + Index + Imm] := b   (integer bits)
	FLoad  // dst := mem[a + Index + Imm] (float bits)
	FStore // mem[a + Index + Imm] := b   (float bits)

	// Terminators.
	Jmp  // continue at block Then
	Br   // if a != 0 continue at Then else at Else
	Call // call Callee(Args...); on return dst := result, continue at Then
	Ret  // return a (or nothing if a == NoReg) to the caller
	Halt // stop the machine
)

var opNames = [...]string{
	Nop: "nop", ConstI: "consti", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Mod: "mod",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	MinI: "mini", MaxI: "maxi",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge",
	ConstF: "constf", FMov: "fmov",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv",
	FMin: "fmin", FMax: "fmax", FNeg: "fneg", FAbs: "fabs",
	FSqrt: "fsqrt", FExp: "fexp", FLog: "flog",
	FCmpEQ: "fcmpeq", FCmpLT: "fcmplt", FCmpLE: "fcmple",
	I2F: "i2f", F2I: "f2i",
	Load: "load", Store: "store", FLoad: "fload", FStore: "fstore",
	Jmp: "jmp", Br: "br", Call: "call", Ret: "ret", Halt: "halt",
}

// String returns the assembler mnemonic of the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsTerminator reports whether the opcode may only end a basic block.
func (op Opcode) IsTerminator() bool {
	switch op {
	case Jmp, Br, Call, Ret, Halt:
		return true
	}
	return false
}

// IsMem reports whether the opcode accesses memory.
func (op Opcode) IsMem() bool {
	switch op {
	case Load, Store, FLoad, FStore:
		return true
	}
	return false
}

// IsMemWrite reports whether the opcode writes memory.
func (op Opcode) IsMemWrite() bool { return op == Store || op == FStore }

// IsFP reports whether the opcode is a floating point operation (the
// paper's %FPops metric counts these).
func (op Opcode) IsFP() bool {
	switch op {
	case ConstF, FMov, FAdd, FSub, FMul, FDiv, FMin, FMax, FNeg, FAbs,
		FSqrt, FExp, FLog, FCmpEQ, FCmpLT, FCmpLE, I2F, FLoad, FStore:
		return true
	}
	return false
}

// IsCompare reports whether the opcode is a comparison.  Comparisons
// almost always feed branches: they are loop control rather than data,
// so affinity metrics treat them like the SCEV loop-counter chains.
func (op Opcode) IsCompare() bool {
	switch op {
	case CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, FCmpEQ, FCmpLT, FCmpLE:
		return true
	}
	return false
}

// IsIntALU reports whether the opcode is pure integer register
// arithmetic.  Only these are candidates for SCEV elimination: they are
// the "unimportant" loop-counter and address computations the paper
// removes from the DDG once recognized as scalar evolutions.
func (op Opcode) IsIntALU() bool {
	switch op {
	case ConstI, Mov, Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr,
		MinI, MaxI, CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, F2I:
		return true
	}
	return false
}

// producesInt reports whether the instruction writes an integer value to
// Dst that is meaningful as a folding label (integer or pointer value).
func (op Opcode) producesInt() bool {
	switch op {
	case ConstI, Mov, Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr,
		MinI, MaxI, CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE,
		FCmpEQ, FCmpLT, FCmpLE, F2I, Load:
		return true
	}
	return false
}

// ProducesInt reports whether the instruction's destination holds an
// integer (rather than float) value.
func (op Opcode) ProducesInt() bool { return op.producesInt() }

// WritesDst reports whether the opcode writes a destination register.
// Control transfers (except Call, whose destination receives the return
// value) and stores do not.
func (op Opcode) WritesDst() bool {
	switch op {
	case Nop, Store, FStore, Jmp, Br, Ret, Halt:
		return false
	}
	return true
}

// SrcLoc is a pseudo source location, mimicking the DWARF debug
// information the paper's tool maps feedback onto ("backprop.c:254").
type SrcLoc struct {
	File string
	Line int
}

// String renders the location as file:line, or "?" when unknown.
func (l SrcLoc) String() string {
	if l.File == "" {
		return "?"
	}
	return fmt.Sprintf("%s:%d", l.File, l.Line)
}

// Instr is a single machine instruction.
type Instr struct {
	Op  Opcode
	Dst Reg // destination register (NoReg when none)
	A   Reg // first operand
	B   Reg // second operand

	Imm  int64   // integer immediate (ConstI, memory displacement)
	FImm float64 // float immediate (ConstF)

	// Index is the optional index register of memory operations (NoReg
	// when unused).
	Index Reg

	// Terminator fields.
	Then   BlockID // Jmp target, Br then-target, Call continuation
	Else   BlockID // Br else-target
	Callee FuncID  // Call target
	Args   []Reg   // Call arguments, copied to callee registers 0..n-1

	Loc SrcLoc // pseudo debug info
}

// Uses returns the registers read by the instruction (at most two plus
// call arguments).  The buf slice is reused to avoid allocation.
func (in *Instr) Uses(buf []Reg) []Reg {
	buf = buf[:0]
	switch in.Op {
	case Nop, ConstI, ConstF, Jmp, Halt:
	case Mov, FMov, FNeg, FAbs, FSqrt, FExp, FLog, I2F, F2I, Br:
		buf = append(buf, in.A)
	case Load, FLoad:
		buf = append(buf, in.A)
		if in.Index != NoReg {
			buf = append(buf, in.Index)
		}
	case Store, FStore:
		buf = append(buf, in.A, in.B)
		if in.Index != NoReg {
			buf = append(buf, in.Index)
		}
	case Ret:
		if in.A != NoReg {
			buf = append(buf, in.A)
		}
	case Call:
		buf = append(buf, in.Args...)
	default: // binary ALU
		buf = append(buf, in.A, in.B)
	}
	return buf
}

// Block is a basic block: a straight-line instruction sequence ending in
// exactly one terminator.
type Block struct {
	ID    BlockID
	Fn    FuncID
	Name  string // diagnostic name, e.g. "L1.header"
	Code  []Instr
	Index int // position within the owning function
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr { return &b.Code[len(b.Code)-1] }

// Func is a machine function.
type Func struct {
	ID      FuncID
	Name    string
	Entry   BlockID
	Blocks  []BlockID // all blocks, entry first
	NumArgs int
	NumRegs int // frame size; registers 0..NumArgs-1 hold arguments

	// SrcDepth declares the loop depth of the function's hottest nest as
	// written in pseudo "source" form.  Workloads set it so feedback can
	// report the paper's ld-src column even when the "compiled" form has
	// a different depth (e.g. an unrolled dimension).
	SrcDepth int
}

// Program is a complete executable image.
type Program struct {
	Name   string
	Funcs  []*Func
	Blocks []*Block // indexed by BlockID
	Main   FuncID

	// MemWords is the memory size in 8-byte words the program needs.
	MemWords int64

	// Globals maps symbolic array names to their base word address and
	// extent; workloads register their arrays here so tests and the
	// static baseline can reason about storage without parsing code.
	Globals map[string]Global
}

// Global describes a named region of the flat memory.
type Global struct {
	Base int64 // first word
	Size int64 // extent in words
}

// Func returns the function with the given id.
func (p *Program) Func(id FuncID) *Func { return p.Funcs[id] }

// Block returns the block with the given id.
func (p *Program) Block(id BlockID) *Block { return p.Blocks[id] }

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Clone deep-copies the program: functions with their block lists,
// blocks with their code, each instruction's call arguments, and the
// globals.  The copy shares nothing mutable with p, so a transformation
// may rewrite it freely.
func (p *Program) Clone() *Program {
	q := *p
	q.Funcs = make([]*Func, len(p.Funcs))
	for i, f := range p.Funcs {
		cf := *f
		cf.Blocks = append([]BlockID(nil), f.Blocks...)
		q.Funcs[i] = &cf
	}
	q.Blocks = make([]*Block, len(p.Blocks))
	for i, b := range p.Blocks {
		cb := *b
		cb.Code = append([]Instr(nil), b.Code...)
		for k := range cb.Code {
			if args := cb.Code[k].Args; args != nil {
				cb.Code[k].Args = append([]Reg(nil), args...)
			}
		}
		q.Blocks[i] = &cb
	}
	if p.Globals != nil {
		q.Globals = make(map[string]Global, len(p.Globals))
		for name, g := range p.Globals {
			q.Globals[name] = g
		}
	}
	return &q
}

// MaxRegsPerFunc caps a function's register frame.  The VM allocates
// NumRegs words per call frame, so an unchecked hostile program could
// request absurd frames; no generated workload comes near this.
const MaxRegsPerFunc = 1 << 16

// Validate checks structural invariants: every block ends in exactly one
// terminator, no terminator appears mid-block, all control-flow targets
// exist and stay within the owning function (calls excepted), and every
// register operand fits the owning function's frame.  The VM refuses to
// run programs that fail validation, so hostile images trap here
// instead of panicking mid-interpretation.
func (p *Program) Validate() error {
	if p.Main < 0 || int(p.Main) >= len(p.Funcs) {
		return fmt.Errorf("program %q: invalid main function %d", p.Name, p.Main)
	}
	if p.MemWords < 0 {
		return fmt.Errorf("program %q: negative memory size %d", p.Name, p.MemWords)
	}
	var buf []Reg
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("function %q has no blocks", f.Name)
		}
		if f.NumRegs < 0 || f.NumRegs > MaxRegsPerFunc {
			return fmt.Errorf("function %q: register frame %d out of range [0, %d]",
				f.Name, f.NumRegs, MaxRegsPerFunc)
		}
		if f.NumArgs < 0 || f.NumArgs > f.NumRegs {
			return fmt.Errorf("function %q: %d args exceed %d registers", f.Name, f.NumArgs, f.NumRegs)
		}
		for _, bid := range f.Blocks {
			if bid < 0 || int(bid) >= len(p.Blocks) {
				return fmt.Errorf("function %q references unknown block %d", f.Name, bid)
			}
			b := p.Blocks[bid]
			if b.Fn != f.ID {
				return fmt.Errorf("block %d listed in %q but owned by function %d", bid, f.Name, b.Fn)
			}
			if len(b.Code) == 0 {
				return fmt.Errorf("block %q (%d) in %q is empty", b.Name, bid, f.Name)
			}
			for i := range b.Code {
				in := &b.Code[i]
				isLast := i == len(b.Code)-1
				if in.Op.IsTerminator() != isLast {
					return fmt.Errorf("block %q (%d) in %q: instruction %d (%v) misplaced terminator",
						b.Name, bid, f.Name, i, in.Op)
				}
				if int(in.Op) >= len(opNames) || opNames[in.Op] == "" {
					return fmt.Errorf("block %q (%d) in %q: instruction %d has unknown opcode %d",
						b.Name, bid, f.Name, i, uint8(in.Op))
				}
				badReg := func(r Reg) bool { return r < 0 || int(r) >= f.NumRegs }
				buf = in.Uses(buf)
				for _, r := range buf {
					if badReg(r) {
						return fmt.Errorf("block %q (%d) in %q: instruction %d (%v) reads register %d (frame %d)",
							b.Name, bid, f.Name, i, in.Op, r, f.NumRegs)
					}
				}
				if in.Op.WritesDst() {
					// Call may discard its result (Dst == NoReg); every
					// other writer needs a real destination.
					if badReg(in.Dst) && !(in.Op == Call && in.Dst == NoReg) {
						return fmt.Errorf("block %q (%d) in %q: instruction %d (%v) writes register %d (frame %d)",
							b.Name, bid, f.Name, i, in.Op, in.Dst, f.NumRegs)
					}
				}
			}
			if err := p.validateTerminator(f, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) validateTerminator(f *Func, b *Block) error {
	t := b.Terminator()
	checkTarget := func(id BlockID, what string) error {
		if id < 0 || int(id) >= len(p.Blocks) {
			return fmt.Errorf("block %q in %q: %s target %d out of range", b.Name, f.Name, what, id)
		}
		if p.Blocks[id].Fn != f.ID {
			return fmt.Errorf("block %q in %q: %s target %d crosses functions", b.Name, f.Name, what, id)
		}
		return nil
	}
	switch t.Op {
	case Jmp:
		return checkTarget(t.Then, "jmp")
	case Br:
		if err := checkTarget(t.Then, "br-then"); err != nil {
			return err
		}
		return checkTarget(t.Else, "br-else")
	case Call:
		if t.Callee < 0 || int(t.Callee) >= len(p.Funcs) {
			return fmt.Errorf("block %q in %q: call to unknown function %d", b.Name, f.Name, t.Callee)
		}
		callee := p.Funcs[t.Callee]
		if len(t.Args) != callee.NumArgs {
			return fmt.Errorf("block %q in %q: call to %q with %d args, want %d",
				b.Name, f.Name, callee.Name, len(t.Args), callee.NumArgs)
		}
		return checkTarget(t.Then, "call continuation")
	case Ret, Halt:
		return nil
	}
	return fmt.Errorf("block %q in %q: bad terminator %v", b.Name, f.Name, t.Op)
}
