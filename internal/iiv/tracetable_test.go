package iiv_test

import (
	"fmt"
	"strings"
	"testing"

	"polyprof/internal/core"
	"polyprof/internal/iiv"
	"polyprof/internal/loopevents"
	"polyprof/internal/vm"
	"polyprof/internal/workloads"
)

// TestFig3TraceTables renders the paper's Fig. 3(d)/(i) trace tables
// for both examples and checks their structural landmarks: Example 1
// reaches the two-dimensional interprocedural vector; Example 2 shows
// the recursion entering (Ec), iterating over calls (Ic) and returns
// (Ir), and exiting (Xr) with the induction value having kept
// increasing.
func TestFig3TraceTables(t *testing.T) {
	table := func(name string) string {
		prog := workloads.ByName(name).Build()
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
		return iiv.TraceTable(events, iiv.ProgramNamer(prog))
	}

	ex1 := table("example1")
	// Two nested IVs visible, e.g. "..., 1, ..., 1, ...".
	if !strings.Contains(ex1, "L") || !strings.Contains(ex1, ", 1, ") {
		t.Errorf("example1 table lacks nested IVs:\n%s", ex1)
	}
	for _, landmark := range []string{"E(L", "I(L", "X(L", "C(", "R("} {
		if !strings.Contains(ex1, landmark) {
			t.Errorf("example1 table missing %q", landmark)
		}
	}

	ex2 := table("example2")
	for _, landmark := range []string{"Ec(R", "Ic(R", "Ir(R", "Xr(R"} {
		if !strings.Contains(ex2, landmark) {
			t.Errorf("example2 table missing %q:\n%s", landmark, ex2)
		}
	}
	// The recursion IV keeps increasing: 4 must appear before the exit
	// (paper steps 21-22: Ir at IV 4, then Xr).
	xr := strings.Index(ex2, "Xr(")
	if !strings.Contains(ex2[:xr], ", 4, ") {
		t.Errorf("recursion IV never reached 4 before Xr:\n%s", ex2)
	}
	if testing.Verbose() {
		fmt.Println(ex2)
	}
}
