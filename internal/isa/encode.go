package isa

// JSON program encoding: the wire form user-submitted programs arrive
// in (POST /v1/jobs) and the bundled workloads can be exported to.  The
// schema mirrors the in-memory representation directly — a program is a
// list of functions plus a flat, globally-indexed block array — with
// opcodes spelled as their assembler mnemonics:
//
//	{
//	  "name": "saxpy",
//	  "main": 0,
//	  "mem_words": 2048,
//	  "globals": {"x": {"base": 0, "size": 1024}},
//	  "funcs":  [{"name": "main", "entry": 0, "blocks": [0, 1],
//	              "num_args": 0, "num_regs": 8}],
//	  "blocks": [{"fn": 0, "name": "entry", "code": [
//	              {"op": "consti", "dst": 0, "imm": 5},
//	              {"op": "jmp", "then": 1}]}, ...]
//	}
//
// Block ids are positions in the top-level "blocks" array; function ids
// are positions in "funcs".  Register and control operands default to
// "unused" (NoReg / NoBlock / NoFunc) when omitted, so hand-written
// programs only spell the operands an instruction actually has.
//
// DecodeJSON builds the Program structure but performs no semantic
// validation beyond resolving mnemonics and bounds-checking the id
// spaces — Program.Validate (enforced by the VM before execution)
// remains the single gatekeeper for structural soundness, so hostile
// images fail there with the same structured errors a corrupt in-memory
// program would.

import (
	"encoding/json"
	"fmt"
)

// opcodeByName is the mnemonic → opcode reverse of opNames.
var opcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opNames))
	for op, name := range opNames {
		if name != "" {
			m[name] = Opcode(op)
		}
	}
	return m
}()

// OpcodeByName resolves an assembler mnemonic ("add", "fstore", ...).
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opcodeByName[name]
	return op, ok
}

type jsonProgram struct {
	Name     string                `json:"name"`
	Main     int32                 `json:"main"`
	MemWords int64                 `json:"mem_words"`
	Globals  map[string]jsonGlobal `json:"globals,omitempty"`
	Funcs    []jsonFunc            `json:"funcs"`
	Blocks   []jsonBlock           `json:"blocks"`
}

type jsonGlobal struct {
	Base int64 `json:"base"`
	Size int64 `json:"size"`
}

type jsonFunc struct {
	Name     string  `json:"name"`
	Entry    int32   `json:"entry"`
	Blocks   []int32 `json:"blocks"`
	NumArgs  int     `json:"num_args"`
	NumRegs  int     `json:"num_regs"`
	SrcDepth int     `json:"src_depth,omitempty"`
}

type jsonBlock struct {
	Fn   int32       `json:"fn"`
	Name string      `json:"name,omitempty"`
	Code []jsonInstr `json:"code"`
}

type jsonInstr struct {
	Op    string  `json:"op"`
	Dst   int32   `json:"dst,omitempty"`
	A     int32   `json:"a,omitempty"`
	B     int32   `json:"b,omitempty"`
	Index int32   `json:"index,omitempty"`
	Imm   int64   `json:"imm,omitempty"`
	FImm  float64 `json:"fimm,omitempty"`
	Then  int32   `json:"then,omitempty"`
	Else  int32   `json:"else,omitempty"`
	Call  int32   `json:"call,omitempty"`
	Args  []int32 `json:"args,omitempty"`
	File  string  `json:"file,omitempty"`
	Line  int     `json:"line,omitempty"`
}

// UnmarshalJSON defaults every operand to its "unused" sentinel before
// decoding, so omitted fields mean NoReg/NoBlock/NoFunc rather than 0.
func (ji *jsonInstr) UnmarshalJSON(data []byte) error {
	ji.Dst, ji.A, ji.B, ji.Index = -1, -1, -1, -1
	ji.Then, ji.Else, ji.Call = -1, -1, -1
	type alias jsonInstr
	return json.Unmarshal(data, (*alias)(ji))
}

// MarshalJSON omits only sentinel (-1) operands — a register 0 is a
// real operand and must survive the round trip, so struct omitempty
// (which drops zeros) cannot be used for the operand fields.
func (ji jsonInstr) MarshalJSON() ([]byte, error) {
	m := map[string]any{"op": ji.Op}
	reg := func(key string, v int32) {
		if v != -1 {
			m[key] = v
		}
	}
	reg("dst", ji.Dst)
	reg("a", ji.A)
	reg("b", ji.B)
	reg("index", ji.Index)
	reg("then", ji.Then)
	reg("else", ji.Else)
	reg("call", ji.Call)
	if ji.Imm != 0 {
		m["imm"] = ji.Imm
	}
	if ji.FImm != 0 {
		m["fimm"] = ji.FImm
	}
	if len(ji.Args) > 0 {
		m["args"] = ji.Args
	}
	if ji.File != "" {
		m["file"] = ji.File
	}
	if ji.Line != 0 {
		m["line"] = ji.Line
	}
	return json.Marshal(m)
}

// EncodeJSON renders the program in the wire encoding DecodeJSON reads.
func EncodeJSON(p *Program) ([]byte, error) {
	jp := jsonProgram{
		Name:     p.Name,
		Main:     int32(p.Main),
		MemWords: p.MemWords,
	}
	if len(p.Globals) > 0 {
		jp.Globals = make(map[string]jsonGlobal, len(p.Globals))
		for name, g := range p.Globals {
			jp.Globals[name] = jsonGlobal{Base: g.Base, Size: g.Size}
		}
	}
	for _, f := range p.Funcs {
		jf := jsonFunc{
			Name: f.Name, Entry: int32(f.Entry),
			NumArgs: f.NumArgs, NumRegs: f.NumRegs, SrcDepth: f.SrcDepth,
		}
		for _, bid := range f.Blocks {
			jf.Blocks = append(jf.Blocks, int32(bid))
		}
		jp.Funcs = append(jp.Funcs, jf)
	}
	for i, b := range p.Blocks {
		if b == nil || BlockID(i) != b.ID {
			return nil, fmt.Errorf("isa: encode: block %d is %v; programs must use dense global block ids", i, b)
		}
		jb := jsonBlock{Fn: int32(b.Fn), Name: b.Name}
		for k := range b.Code {
			in := &b.Code[k]
			ji := jsonInstr{
				Op:  in.Op.String(),
				Dst: int32(in.Dst), A: int32(in.A), B: int32(in.B), Index: int32(in.Index),
				Imm: in.Imm, FImm: in.FImm,
				Then: int32(in.Then), Else: int32(in.Else), Call: int32(in.Callee),
				File: in.Loc.File, Line: in.Loc.Line,
			}
			for _, r := range in.Args {
				ji.Args = append(ji.Args, int32(r))
			}
			jb.Code = append(jb.Code, ji)
		}
		jp.Blocks = append(jp.Blocks, jb)
	}
	return json.MarshalIndent(jp, "", " ")
}

// Decode limits: a hostile submission cannot demand unbounded structure
// no matter what its (already size-capped) JSON says.
const (
	maxDecodeFuncs  = 1 << 12
	maxDecodeBlocks = 1 << 16
)

// DecodeJSON parses the wire encoding into a Program.  It resolves
// mnemonics and rejects out-of-range id spaces; everything else —
// terminators, register frames, branch targets — is left to
// Program.Validate so decode errors stay purely syntactic.
func DecodeJSON(data []byte) (*Program, error) {
	var jp jsonProgram
	if err := json.Unmarshal(data, &jp); err != nil {
		return nil, fmt.Errorf("isa: decode: %w", err)
	}
	if len(jp.Funcs) == 0 {
		return nil, fmt.Errorf("isa: decode: program %q has no functions", jp.Name)
	}
	if len(jp.Funcs) > maxDecodeFuncs {
		return nil, fmt.Errorf("isa: decode: %d functions exceed the limit %d", len(jp.Funcs), maxDecodeFuncs)
	}
	if len(jp.Blocks) > maxDecodeBlocks {
		return nil, fmt.Errorf("isa: decode: %d blocks exceed the limit %d", len(jp.Blocks), maxDecodeBlocks)
	}
	p := &Program{Name: jp.Name, Main: FuncID(jp.Main), MemWords: jp.MemWords}
	if len(jp.Globals) > 0 {
		p.Globals = make(map[string]Global, len(jp.Globals))
		for name, g := range jp.Globals {
			p.Globals[name] = Global{Base: g.Base, Size: g.Size}
		}
	}
	for i, jf := range jp.Funcs {
		f := &Func{
			ID: FuncID(i), Name: jf.Name, Entry: BlockID(jf.Entry),
			NumArgs: jf.NumArgs, NumRegs: jf.NumRegs, SrcDepth: jf.SrcDepth,
		}
		for _, bid := range jf.Blocks {
			f.Blocks = append(f.Blocks, BlockID(bid))
		}
		p.Funcs = append(p.Funcs, f)
	}
	for i, jb := range jp.Blocks {
		if jb.Fn < 0 || int(jb.Fn) >= len(p.Funcs) {
			return nil, fmt.Errorf("isa: decode: block %d names function %d (have %d)", i, jb.Fn, len(p.Funcs))
		}
		b := &Block{ID: BlockID(i), Fn: FuncID(jb.Fn), Name: jb.Name}
		for k, ji := range jb.Code {
			op, ok := OpcodeByName(ji.Op)
			if !ok {
				return nil, fmt.Errorf("isa: decode: block %d instruction %d: unknown opcode %q", i, k, ji.Op)
			}
			in := Instr{
				Op:  op,
				Dst: Reg(ji.Dst), A: Reg(ji.A), B: Reg(ji.B), Index: Reg(ji.Index),
				Imm: ji.Imm, FImm: ji.FImm,
				Then: BlockID(ji.Then), Else: BlockID(ji.Else), Callee: FuncID(ji.Call),
				Loc: SrcLoc{File: ji.File, Line: ji.Line},
			}
			for _, r := range ji.Args {
				in.Args = append(in.Args, Reg(r))
			}
			b.Code = append(b.Code, in)
		}
		p.Blocks = append(p.Blocks, b)
	}
	// Derive each block's position within its owning function; blocks no
	// function lists keep Index 0, which Validate will reject anyway.
	for _, f := range p.Funcs {
		for idx, bid := range f.Blocks {
			if bid >= 0 && int(bid) < len(p.Blocks) && p.Blocks[bid].Fn == f.ID {
				p.Blocks[bid].Index = idx
			}
		}
	}
	return p, nil
}
