package ddg

import (
	"slices"
	"testing"

	"polyprof/internal/isa"
)

// TestInBlockDefs: each use maps to the last earlier writer of its
// register in the block — after a redefinition the later one, a use
// listed twice twice, and neither a call's result nor a register
// outside the frame.
func TestInBlockDefs(t *testing.T) {
	blk := &isa.Block{Code: []isa.Instr{
		{Op: isa.ConstI, Dst: 0},                      // 0: r0 = ...
		{Op: isa.Add, Dst: 1, A: 0, B: 0},             // 1: r1 = r0 + r0
		{Op: isa.Add, Dst: 0, A: 1, B: 2},             // 2: r0 = r1 + r2 (r2 from outside)
		{Op: isa.Mul, Dst: 3, A: 0, B: 1},             // 3: r3 = r0 * r1, r0 from 2
		{Op: isa.ConstI, Dst: 9},                      // 4: r9 is outside the frame
		{Op: isa.Call, Dst: 4, Args: []isa.Reg{3, 9}}, // 5: call(r3, r9)
	}}
	want := [][]int32{
		nil,
		{0, 0},
		{1, -1},
		{2, 1},
		nil,
		{3, -1},
	}
	got := inBlockDefs(blk, 8)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for j := range want {
		if !slices.Equal(got[j], want[j]) {
			t.Errorf("instruction %d: defs %v, want %v", j, got[j], want[j])
		}
	}
	if m := multiplicity(got, 0, 1); m != 2 {
		t.Errorf("multiplicity of 0 -> 1 = %d, want 2", m)
	}
	if defs := inBlockDefs(&isa.Block{Code: []isa.Instr{{Op: isa.Add, Dst: 0, A: 0, B: 1}, {Op: isa.Halt}}}, 2); defs != nil {
		t.Errorf("block without in-block pairs: defs %v, want nil", defs)
	}
}
