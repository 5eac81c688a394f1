package iiv_test

import (
	"regexp"
	"testing"

	"polyprof/internal/core"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/vm"
	"polyprof/internal/workloads"
)

// buildFused builds Fig. 4's fused form: one 2D triangular nest with
// two statements S and T in the body.
func buildFused() *isa.Program {
	pb := isa.NewProgram("fused")
	a := pb.Global("A", 64)
	b := pb.Global("B", 64)
	f := pb.Func("main", 0)
	aB, bB := f.IConst(a.Base), f.IConst(b.Base)
	n := f.IConst(6)
	f.Loop("Li", f.IConst(0), n, 1, func(i isa.Reg) {
		f.Loop("Lj", f.IConst(0), f.Add(i, f.IConst(1)), 1, func(j isa.Reg) {
			f.StoreIdx(aB, f.Add(f.Mul(i, f.IConst(8)), j), 0, i) // S
			f.StoreIdx(bB, f.Add(f.Mul(i, f.IConst(8)), j), 0, j) // T
		})
	})
	f.Halt()
	pb.SetMain(f)
	return pb.MustBuild()
}

// buildFissioned builds Fig. 4's fissioned form: two consecutive 2D
// nests, S in the first and T in the second.
func buildFissioned() *isa.Program {
	pb := isa.NewProgram("fissioned")
	a := pb.Global("A", 64)
	b := pb.Global("B", 64)
	f := pb.Func("main", 0)
	aB, bB := f.IConst(a.Base), f.IConst(b.Base)
	n := f.IConst(6)
	f.Loop("Li1", f.IConst(0), n, 1, func(i isa.Reg) {
		f.Loop("Lj1", f.IConst(0), f.Add(i, f.IConst(1)), 1, func(j isa.Reg) {
			f.StoreIdx(aB, f.Add(f.Mul(i, f.IConst(8)), j), 0, i) // S
		})
	})
	f.Loop("Li2", f.IConst(0), n, 1, func(i isa.Reg) {
		f.Loop("Lj2", f.IConst(0), f.Add(i, f.IConst(1)), 1, func(j isa.Reg) {
			f.StoreIdx(bB, f.Add(f.Mul(i, f.IConst(8)), j), 0, j) // T
		})
	})
	f.Halt()
	pb.SetMain(f)
	return pb.MustBuild()
}

// loopNodesOf collects the loop nodes of the profiled schedule tree in
// static order with their depth.
func loopNodesOf(t *testing.T, prog *isa.Program) []*iiv.TreeNode {
	t.Helper()
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := core.RunPass2(prog, st, nil, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	var loops []*iiv.TreeNode
	p2.Tree.Walk(func(n *iiv.TreeNode, depth int) {
		if !n.IsRoot() && n.Elem.IsLoop() {
			loops = append(loops, n)
		}
	})
	return loops
}

// TestKellyMappingFusedVsFissioned reproduces Fig. 4: in the fused
// form one loop pair hosts both statements; in the fissioned form the
// two outer loops become separate schedule-tree siblings whose static
// indices order them (Kelly's mapping numbers the reduced DAG in
// topological order), so the schedules are [0,i,0,j,{0|1}] vs.
// [{0|1},i,0,j,0] — exactly the paper's two mappings.
func TestKellyMappingFusedVsFissioned(t *testing.T) {
	fused := loopNodesOf(t, buildFused())
	if len(fused) != 2 {
		t.Fatalf("fused form has %d loop nodes, want 2 (Li ⊃ Lj)", len(fused))
	}
	if fused[1].Parent == fused[0].Parent {
		t.Error("fused Lj must nest under Li, not be its sibling")
	}

	fissioned := loopNodesOf(t, buildFissioned())
	if len(fissioned) != 4 {
		t.Fatalf("fissioned form has %d loop nodes, want 4", len(fissioned))
	}
	// The two outer loops are siblings under the same context node with
	// consecutive static indices: the [0,...] and [1,...] prefixes of
	// Kelly's mapping.
	var outers []*iiv.TreeNode
	for _, l := range fissioned {
		parentIsLoop := false
		for cur := l.Parent; cur != nil && !cur.IsRoot(); cur = cur.Parent {
			if cur.Elem.IsLoop() {
				parentIsLoop = true
				break
			}
		}
		if !parentIsLoop {
			outers = append(outers, l)
		}
	}
	if len(outers) != 2 {
		t.Fatalf("found %d outer loops, want 2", len(outers))
	}
	if outers[0].StaticIdx >= outers[1].StaticIdx {
		t.Errorf("outer loops' static indices %d, %d must be increasing (lexicographic schedule order)",
			outers[0].StaticIdx, outers[1].StaticIdx)
	}
}

// TestRenderPaperForm replays Example 1's loop events through a fresh
// vector and checks that the textual rendering reaches the paper's
// two-dimensional interprocedural form "(…/L…, i, …/L…, j, …)"
// (Fig. 3d step 8: (M0/L1, 0, A1/L2, 1, B1)).
func TestRenderPaperForm(t *testing.T) {
	prog := workloads.Example1()
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	p2 := core.NewPass2(prog, st, nil)
	var events []loopevents.Event
	p2.Events = &events
	m := vm.New(prog, p2)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	vec := iiv.NewVector()
	namer := iiv.ProgramNamer(prog)
	if got := vec.Render(namer); got != "()" {
		t.Fatalf("initial vector renders %q, want ()", got)
	}
	re := regexp.MustCompile(`\(.*L\d+, 1, .*L\d+, 1, .*\)`)
	saw := false
	for _, ev := range events {
		vec.Apply(ev)
		if re.MatchString(vec.Render(namer)) {
			saw = true
		}
	}
	if !saw {
		t.Errorf("never reached the two-dimensional (…/L, 1, …/L, 1, …) form; events: %d", len(events))
	}
	if got := vec.Render(namer); got == "()" || vec.Depth() != 0 {
		// After the run the stack unwound back to depth 0.
		if vec.Depth() != 0 {
			t.Errorf("final vector depth %d, want 0 (all loops exited)", vec.Depth())
		}
	}
}
