package iiv_test

import (
	"testing"

	"polyprof/internal/core"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/vm"
	"polyprof/internal/workloads"
)

// buildTwoCallSites builds a loop whose body calls one function from
// two call sites in turn, so consecutive contexts share the callee's
// elements below a changed call-site element: a stepped walk must not
// reuse the callee nodes of the other call site.
func buildTwoCallSites() *isa.Program {
	pb := isa.NewProgram("two-call-sites")
	a := pb.Global("A", 16)
	f := pb.Func("f", 1)
	f.Loop("Lf", f.IConst(0), f.IConst(2), 1, func(j isa.Reg) {
		f.StoreIdx(f.IConst(a.Base), f.Add(f.Arg(0), j), 0, j)
	})
	f.RetVoid()
	m := pb.Func("main", 0)
	m.Loop("Lm", m.IConst(0), m.IConst(3), 1, func(i isa.Reg) {
		m.Call(f.ID(), i)
		m.Call(f.ID(), m.AddImm(i, 8))
	})
	m.Halt()
	pb.SetMain(m)
	return pb.MustBuild()
}

// refNode walks the context elements of dims from the root, matching
// children by key: the from-root walk the stepped one replaces.  It
// returns nil when a node on the way does not exist.
func refNode(t *iiv.Tree, dims []iiv.Dim) *iiv.TreeNode {
	n := t.Root
	for _, d := range dims {
		for _, e := range d.Ctx {
			var next *iiv.TreeNode
			for _, c := range n.Children {
				if c.Elem.Key() == e.Key() {
					next = c
					break
				}
			}
			if next == nil {
				return nil
			}
			n = next
		}
	}
	return n
}

// TestSteppedWalk drives a vector and a schedule tree with the loop
// events of several workloads, example2's recursion among them, and
// checks every Touch and NoteIteration against a from-root walk.
// Halfway through, the tree is checkpointed and restored, so the walk
// restarts from an empty path on a rebuilt tree.
func TestSteppedWalk(t *testing.T) {
	progs := []*isa.Program{buildTwoCallSites()}
	for _, name := range []string{"example1", "example2", "backprop", "lud", "nw", "streamcluster"} {
		progs = append(progs, workloads.ByName(name).Build())
	}
	for _, prog := range progs {
		t.Run(prog.Name, func(t *testing.T) {
			st, err := core.AnalyzeStructure(prog, core.Env{})
			if err != nil {
				t.Fatal(err)
			}
			p2 := core.NewPass2(prog, st, nil)
			var events []loopevents.Event
			p2.Events = &events
			if err := vm.New(prog, p2).Run(); err != nil {
				t.Fatal(err)
			}

			v, tree := iiv.NewVector(), iiv.NewTree()
			res := iiv.NewElemResolver(st.Forest, st.Comps)
			iterations := 0
			for i, e := range events {
				if i == len(events)/2 {
					if tree, err = iiv.RestoreTree(tree.State(), res); err != nil {
						t.Fatal(err)
					}
				}
				v.Apply(e)
				switch e.Kind {
				case loopevents.EnterLoop, loopevents.IterateLoop,
					loopevents.EnterRec, loopevents.IterCallRec, loopevents.IterRetRec:
					if dims := v.Dims(); len(dims) >= 2 {
						var before uint64
						if n := refNode(tree, dims[:len(dims)-1]); n != nil {
							before = n.Iters
						}
						tree.NoteIteration(v)
						n := refNode(tree, dims[:len(dims)-1])
						if n == nil || n.Iters != before+1 {
							t.Fatalf("event %d (%v): NoteIteration missed the loop node of %s", i, e.Kind, v.Key())
						}
						iterations++
					}
				}
				n := tree.Touch(v)
				if want := refNode(tree, v.Dims()); n != want {
					t.Fatalf("event %d (%v): Touch returned %p, from-root walk finds %p at %s", i, e.Kind, n, want, v.Key())
				}
				if n.CtxKey != v.Key() {
					t.Fatalf("event %d: leaf key %q, vector key %q", i, n.CtxKey, v.Key())
				}
			}
			if iterations == 0 {
				t.Fatalf("%d events noted no iteration", len(events))
			}
			t.Logf("%d events, %d iterations", len(events), iterations)
		})
	}
}
