package isa

import (
	"fmt"
	"strings"
)

// DisasmInstr renders one instruction in a compact pseudo-assembler
// syntax close to the paper's Fig. 6 listing.
func (p *Program) DisasmInstr(in *Instr) string {
	var sb strings.Builder
	reg := func(r Reg) string {
		if r == NoReg {
			return "_"
		}
		return fmt.Sprintf("r%d", r)
	}
	switch in.Op {
	case Nop:
		sb.WriteString("nop")
	case ConstI:
		fmt.Fprintf(&sb, "%s = %d", reg(in.Dst), in.Imm)
	case ConstF:
		fmt.Fprintf(&sb, "%s = %g", reg(in.Dst), in.FImm)
	case Mov, FMov:
		fmt.Fprintf(&sb, "%s = %s", reg(in.Dst), reg(in.A))
	case FNeg, FAbs, FSqrt, FExp, FLog, I2F, F2I:
		fmt.Fprintf(&sb, "%s = %v(%s)", reg(in.Dst), in.Op, reg(in.A))
	case Load, FLoad:
		fmt.Fprintf(&sb, "%s = %v(&%s%s + %d)", reg(in.Dst), in.Op, reg(in.A), idxStr(in), in.Imm)
	case Store, FStore:
		fmt.Fprintf(&sb, "%v(&%s%s + %d) = %s", in.Op, reg(in.A), idxStr(in), in.Imm, reg(in.B))
	case Jmp:
		fmt.Fprintf(&sb, "jmp %s", p.Blocks[in.Then].Name)
	case Br:
		fmt.Fprintf(&sb, "br %s, %s, %s", reg(in.A), p.Blocks[in.Then].Name, p.Blocks[in.Else].Name)
	case Call:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = reg(a)
		}
		fmt.Fprintf(&sb, "%s = call %s(%s) -> %s", reg(in.Dst),
			p.Funcs[in.Callee].Name, strings.Join(args, ", "), p.Blocks[in.Then].Name)
	case Ret:
		if in.A == NoReg {
			sb.WriteString("ret")
		} else {
			fmt.Fprintf(&sb, "ret %s", reg(in.A))
		}
	case Halt:
		sb.WriteString("halt")
	default:
		fmt.Fprintf(&sb, "%s = %v %s, %s", reg(in.Dst), in.Op, reg(in.A), reg(in.B))
	}
	return sb.String()
}

func idxStr(in *Instr) string {
	if in.Index == NoReg {
		return ""
	}
	return fmt.Sprintf(" + r%d", in.Index)
}

// DisasmFunc renders a whole function, one block per paragraph.
func (p *Program) DisasmFunc(f *Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(%d args, %d regs):\n", f.Name, f.NumArgs, f.NumRegs)
	for _, bid := range f.Blocks {
		b := p.Blocks[bid]
		fmt.Fprintf(&sb, "%s:  ; block %d\n", b.Name, b.ID)
		for i := range b.Code {
			in := &b.Code[i]
			loc := ""
			if in.Loc.File != "" {
				loc = "  ; " + in.Loc.String()
			}
			fmt.Fprintf(&sb, "    %s%s\n", p.DisasmInstr(in), loc)
		}
	}
	return sb.String()
}

// Disasm renders the entire program.
func (p *Program) Disasm() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s (main=%s, %d words of memory)\n",
		p.Name, p.Funcs[p.Main].Name, p.MemWords)
	for _, f := range p.Funcs {
		sb.WriteString(p.DisasmFunc(f))
	}
	return sb.String()
}

// Successors returns the static control-flow successors of a block
// within its function (call continuations included, callee entries not:
// those are call-graph edges, not CFG edges).
func (p *Program) Successors(id BlockID) []BlockID {
	t := p.Blocks[id].Terminator()
	switch t.Op {
	case Jmp:
		return []BlockID{t.Then}
	case Br:
		if t.Then == t.Else {
			return []BlockID{t.Then}
		}
		return []BlockID{t.Then, t.Else}
	case Call:
		return []BlockID{t.Then}
	}
	return nil
}

// Callees returns the functions a block may call (zero or one in this
// ISA: calls are block terminators).
func (p *Program) Callees(id BlockID) []FuncID {
	t := p.Blocks[id].Terminator()
	if t.Op == Call {
		return []FuncID{t.Callee}
	}
	return nil
}
