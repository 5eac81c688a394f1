package isa_test

import (
	"bytes"
	"testing"

	"polyprof/internal/isa"
	"polyprof/internal/workloads"
)

// TestProgramClone: a clone of every bundled workload encodes exactly
// as the original does, and writing through the clone's code, call
// arguments, block lists and globals leaves the original untouched.
func TestProgramClone(t *testing.T) {
	calls := 0
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			prog := workloads.ByName(name).Build()
			want, err := isa.EncodeJSON(prog)
			if err != nil {
				t.Fatal(err)
			}
			c := prog.Clone()
			got, err := isa.EncodeJSON(c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("clone encodes differently (%d vs %d bytes)", len(got), len(want))
			}

			call := findCall(c)
			for _, b := range c.Blocks {
				for k := range b.Code {
					b.Code[k].Imm += 7
					b.Code[k].Loc.Line++
				}
				b.Code = append(b.Code, isa.Instr{Op: isa.Nop})
				b.Name += ".clone"
			}
			if call != nil {
				calls++
				for k := range call.Args {
					call.Args[k]++
				}
			}
			for _, f := range c.Funcs {
				f.Blocks = append(f.Blocks[:0], f.Blocks[len(f.Blocks)-1])
				f.NumRegs++
			}
			c.Blocks = append(c.Blocks[:0], c.Blocks[len(c.Blocks)-1])
			for g := range c.Globals {
				c.Globals[g] = isa.Global{Base: -1}
			}
			c.Globals["clone.only"] = isa.Global{Size: 1}
			c.MemWords++

			after, err := isa.EncodeJSON(prog)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, want) {
				t.Fatal("mutating the clone changed the original")
			}
		})
	}
	if calls == 0 {
		t.Error("no workload has a call with arguments; the Args copy went unchecked")
	}
}

// findCall returns the first call terminator of the program, or nil.
func findCall(p *isa.Program) *isa.Instr {
	for _, b := range p.Blocks {
		if t := b.Terminator(); t.Op == isa.Call && len(t.Args) > 0 {
			return t
		}
	}
	return nil
}
