package ddg_test

import (
	"encoding/json"
	"strings"
	"testing"

	"polyprof/internal/core"
	"polyprof/internal/ddg"
	"polyprof/internal/fold"
	"polyprof/internal/isa"
	"polyprof/internal/poly"
	"polyprof/internal/workloads"
)

func runProfile(t *testing.T, prog *isa.Program) *core.Profile {
	t.Helper()
	p, err := core.Run(prog, core.DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// instrsIn returns the folded instructions executed in blocks of the
// named function whose block name contains sub.
func instrsIn(p *core.Profile, fn, sub string) []*ddg.Instr {
	var out []*ddg.Instr
	for _, i := range p.DDG.Instrs {
		b := p.Prog.Block(i.Ref.Block)
		if p.Prog.Func(b.Fn).Name == fn && strings.Contains(b.Name, sub) {
			out = append(out, i)
		}
	}
	return out
}

// TestBackpropTable2 reproduces the paper's Tables 1 and 2 end-to-end:
// profiling the backprop twin must fold the layer-forward kernel's
// dependencies into
//
//	I1 -> I2:  { 0<=cj<=15, 0<=ck<=42 }  (cj,ck) -> (cj,ck)
//	I4 -> I4:  { 0<=cj<=15, 1<=ck<=42 }  (cj,ck) -> (cj,ck-1)
//
// and recognize the k-increment (I5) as a SCEV so its dependence chains
// vanish.
func TestBackpropTable2(t *testing.T) {
	prog := workloads.Backprop(workloads.DefaultBackpropParams())
	p := runProfile(t, prog)

	// Locate the inner-loop instructions of the *first* (big) call:
	// count 16*43 = 688 executions.
	const bigCount = 16 * 43
	var i1, i2, i4 *ddg.Instr
	for _, i := range instrsIn(p, "bpnn_layerforward", "Lk.body") {
		if i.Count != bigCount {
			continue
		}
		switch i.Op {
		case isa.Load:
			i1 = i
		case isa.FLoad:
			// I2 loads through the row pointer (its base register is not
			// the l1 argument); distinguish by checking the access
			// pattern later — here, pick the one whose address stride in
			// ck is large for I2 detection via folded access fn.
			if i2 == nil {
				i2 = i
			} else if i.Access.Fn != nil && i2.Access.Fn != nil {
				// I2's address varies by (Hidden+1)=17 per ck; I3's by 1.
				if abs(i.Access.Fn.Rows[0].C[1]) > abs(i2.Access.Fn.Rows[0].C[1]) {
					i2 = i
				}
			}
		case isa.FAdd:
			i4 = i
		}
	}
	if i1 == nil || i2 == nil || i4 == nil {
		t.Fatalf("kernel instructions not found: I1=%v I2=%v I4=%v", i1, i2, i4)
	}

	findDep := func(src, dst *ddg.Instr, kind ddg.Kind) *ddg.Dep {
		for _, d := range p.DDG.Deps {
			if d.Src == src && d.Dst == dst && d.Kind == kind {
				return d
			}
		}
		return nil
	}

	// I1 -> I2 (register flow via the row pointer).
	d12 := findDep(i1, i2, ddg.FlowReg)
	if d12 == nil {
		t.Fatal("missing I1 -> I2 dependence")
	}
	if !d12.Piece().Exact || d12.Piece().Fn == nil {
		t.Fatalf("I1->I2 not folded exactly: %v", d12)
	}
	if !d12.Piece().Fn.Equal(poly.Identity(2)) {
		t.Errorf("I1->I2 map = %v, want identity", d12.Piece().Fn)
	}
	checkRect(t, "I1->I2", d12.Piece().Dom, 0, 15, 0, 42)

	// I4 -> I4 (sum accumulation across ck).
	d44 := findDep(i4, i4, ddg.FlowReg)
	if d44 == nil {
		t.Fatal("missing I4 -> I4 dependence")
	}
	if !d44.Piece().Exact || d44.Piece().Fn == nil {
		t.Fatalf("I4->I4 not folded exactly: %v", d44)
	}
	want := poly.NewMap(2, 2)
	want.Rows[0] = poly.Var(2, 0)
	want.Rows[1] = poly.Var(2, 1).Sub(poly.Const(2, 1))
	if !d44.Piece().Fn.Equal(want) {
		t.Errorf("I4->I4 map = %v, want (cj, ck-1)", d44.Piece().Fn)
	}
	checkRect(t, "I4->I4", d44.Piece().Dom, 0, 15, 1, 42)
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func checkRect(t *testing.T, what string, dom *poly.Poly, lo0, hi0, lo1, hi1 int64) {
	t.Helper()
	for dim, want := range [][2]int64{{lo0, hi0}, {lo1, hi1}} {
		lo, hi, lok, hok := dom.IntBounds(poly.Var(dom.Dim, dim))
		if !lok || !hok || lo != want[0] || hi != want[1] {
			t.Errorf("%s dim %d bounds [%d,%d], want [%d,%d]", what, dim, lo, hi, want[0], want[1])
		}
	}
}

// TestBackpropSCEV checks that loop-counter and address arithmetic are
// recognized as scalar evolutions (I5/I8 in the paper) and that no
// dependence edge touches a SCEV instruction.
func TestBackpropSCEV(t *testing.T) {
	prog := workloads.Backprop(workloads.DefaultBackpropParams())
	p := runProfile(t, prog)

	scevs := 0
	for _, i := range instrsIn(p, "bpnn_layerforward", "") {
		if i.IsSCEV {
			scevs++
		}
	}
	if scevs == 0 {
		t.Error("no SCEVs recognized in bpnn_layerforward (expected loop counters and bounds)")
	}
	for _, d := range p.DDG.Deps {
		if d.Src.IsSCEV || d.Dst.IsSCEV {
			t.Fatalf("dependence touches SCEV instruction: %v", d)
		}
	}
}

// TestBackpropAccessFunctions checks folded address functions: I3 loads
// l1[k] (stride 1 in ck), I2 loads conn[k][j] (stride 17 in ck, 1 in
// cj) — the raw material for the paper's stride-based interchange
// feedback.
func TestBackpropAccessFunctions(t *testing.T) {
	prog := workloads.Backprop(workloads.DefaultBackpropParams())
	p := runProfile(t, prog)

	const bigCount = 16 * 43
	var strides [][2]int64
	for _, i := range instrsIn(p, "bpnn_layerforward", "Lk.body") {
		if i.Count != bigCount || !i.HasAccess() {
			continue
		}
		if i.Access.Fn == nil {
			t.Errorf("access of %v (%v) not affine", i.Op, i.Loc)
			continue
		}
		e := i.Access.Fn.Rows[0]
		strides = append(strides, [2]int64{e.C[0], e.C[1]})
	}
	if len(strides) != 3 {
		t.Fatalf("got %d folded accesses in the inner body, want 3 (I1, I2, I3)", len(strides))
	}
	var have1, have17 bool
	for _, s := range strides {
		if s[1] == 1 {
			have1 = true // I1 (conn+k) or I3 (l1+k)
		}
		if s[1] == 17 && s[0] == 1 {
			have17 = true // I2: conn_rows + 17*ck + cj (+const)
		}
	}
	if !have1 || !have17 {
		t.Errorf("stride profile wrong: %v", strides)
	}
}

// TestMemoryFlowDependence checks shadow-memory RAW edges across loop
// nests: a producer loop writing A[i] and a consumer loop reading A[i]
// must yield an inter-statement flow dep with the identity map.
func TestMemoryFlowDependence(t *testing.T) {
	pb := isa.NewProgram("producer-consumer")
	a := pb.Global("A", 64)
	b := pb.Global("B", 64)
	m := pb.Func("main", 0)
	n := m.IConst(32)
	aBase := m.IConst(a.Base)
	bBase := m.IConst(b.Base)
	m.Loop("Lw", m.IConst(0), n, 1, func(i isa.Reg) {
		m.StoreIdx(aBase, i, 0, m.Mul(i, i)) // non-SCEV value (i*i)... i*i is Mul of i,i: quadratic
	})
	m.Loop("Lr", m.IConst(0), n, 1, func(i isa.Reg) {
		v := m.LoadIdx(aBase, i, 0)
		m.StoreIdx(bBase, i, 0, v)
	})
	m.Halt()
	pb.SetMain(m)
	prog := pb.MustBuild()

	p := runProfile(t, prog)
	var found *ddg.Dep
	for _, d := range p.DDG.Deps {
		if d.Kind == ddg.FlowMem && d.Src.Op == isa.Store && d.Dst.Op == isa.Load {
			found = d
		}
	}
	if found == nil {
		t.Fatal("missing cross-loop memory flow dependence")
	}
	if !found.Piece().Exact || found.Piece().Fn == nil {
		t.Fatalf("cross-loop dep not folded: %v", found)
	}
	if !found.Piece().Fn.Equal(poly.Identity(1)) {
		t.Errorf("dep map = %v, want identity", found.Piece().Fn)
	}
	if found.Count != 32 {
		t.Errorf("dep count = %d, want 32", found.Count)
	}
}

// TestOutputAndAntiDeps checks WAW and WAR tracking on an in-place
// update loop.
func TestOutputAndAntiDeps(t *testing.T) {
	pb := isa.NewProgram("waw-war")
	a := pb.Global("A", 8)
	m := pb.Func("main", 0)
	aBase := m.IConst(a.Base)
	zero := m.IConst(0)
	m.Loop("L", m.IConst(0), m.IConst(16), 1, func(i isa.Reg) {
		v := m.LoadIdx(aBase, zero, 0)          // read A[0]
		m.StoreIdx(aBase, zero, 0, m.Add(v, v)) // write A[0]
	})
	m.Halt()
	pb.SetMain(m)
	p := runProfile(t, pb.MustBuild())

	var haveOut, haveAnti bool
	for _, d := range p.DDG.Deps {
		switch d.Kind {
		case ddg.Output:
			haveOut = true
		case ddg.Anti:
			haveAnti = true
		}
	}
	if !haveOut {
		t.Error("missing output (WAW) dependence on repeated A[0] store")
	}
	if !haveAnti {
		t.Error("missing anti (WAR) dependence on A[0]")
	}
}

// TestArgAndReturnLinkage checks register dependencies flow through
// calls (arguments) and returns (return values).
func TestArgAndReturnLinkage(t *testing.T) {
	pb := isa.NewProgram("linkage")
	out := pb.Global("out", 8)
	double := pb.Func("double", 1)
	double.Ret(double.Add(double.Arg(0), double.Arg(0)))
	m := pb.Func("main", 0)
	base := m.IConst(out.Base)
	m.Loop("L", m.IConst(0), m.IConst(4), 1, func(i isa.Reg) {
		sq := m.Mul(i, i) // non-affine producer, survives SCEV removal
		d := m.Call(double.ID(), sq)
		m.StoreIdx(base, i, 0, d)
	})
	m.Halt()
	pb.SetMain(m)
	p := runProfile(t, pb.MustBuild())

	var argDep, retDep bool
	for _, d := range p.DDG.Deps {
		if d.Kind != ddg.FlowReg {
			continue
		}
		srcFn := p.Prog.Func(p.Prog.Block(d.Src.Ref.Block).Fn).Name
		dstFn := p.Prog.Func(p.Prog.Block(d.Dst.Ref.Block).Fn).Name
		if srcFn == "main" && dstFn == "double" {
			argDep = true
		}
		if srcFn == "double" && dstFn == "main" {
			retDep = true
		}
	}
	if !argDep {
		t.Error("missing argument dependence main -> double")
	}
	if !retDep {
		t.Error("missing return-value dependence double -> main")
	}
}

// TestStatementDomains checks folded statement domains for the
// triangular pattern.
func TestStatementDomains(t *testing.T) {
	pb := isa.NewProgram("triangle")
	a := pb.Global("A", 128)
	m := pb.Func("main", 0)
	base := m.IConst(a.Base)
	n := m.IConst(8)
	m.Loop("Li", m.IConst(0), n, 1, func(i isa.Reg) {
		end := m.Add(i, m.IConst(1))
		m.Loop("Lj", m.IConst(0), end, 1, func(j isa.Reg) {
			m.StoreIdx(base, m.Add(m.Mul(i, m.IConst(8)), j), 0, i)
		})
	})
	m.Halt()
	pb.SetMain(m)
	p := runProfile(t, pb.MustBuild())

	var dom *poly.Poly
	for _, s := range p.DDG.Stmts {
		if strings.Contains(p.Prog.Block(s.Block).Name, "Lj.body") {
			if !s.Domain.Exact {
				t.Fatalf("triangular domain not exact: %v", s.Domain)
			}
			dom = s.Domain.Dom
		}
	}
	if dom == nil {
		t.Fatal("inner statement not found")
	}
	if n, exact := dom.PointCount(1000); n != 36 || !exact {
		t.Errorf("triangle has %d points (exact=%v), want 36", n, exact)
	}
	if dom.Contains([]int64{2, 3}) {
		t.Error("domain must exclude j > i")
	}
}

// TestRestoreRejectsMisplacedVertices: checkpoints arrive from the WAL
// and the lease API, so a statement outside the program, or an
// instruction filed under another statement's block or context, is an
// error rather than a panic or a vertex the event path never finds.  So
// is a bundle listed twice or of no known kind, and a state that does
// not derive in-block register flow: an older format, a derived bundle
// carrying a folder, a derived count off its consumer's, a missing
// derived bundle, or a statement of a block with in-block pairs folding
// unlabelled.
func TestRestoreRejectsMisplacedVertices(t *testing.T) {
	prog := workloads.Example1()
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	b := ddg.NewBuilder(prog, ddg.DefaultOptions())
	if _, _, err := core.RunPass2(prog, st, b, core.Env{}); err != nil {
		t.Fatal(err)
	}
	state, err := b.State()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	// derived is the first bundle the state lists without a folder or
	// box: an in-block register pair.
	derived := func(s *ddg.BuilderState) int {
		for i, d := range s.Deps {
			if d.Folder == nil && d.Box == nil {
				return i
			}
		}
		t.Fatal("example1 derives no bundle")
		return 0
	}
	labelled := func(s *ddg.BuilderState) int {
		for i, st := range s.Stmts {
			if st.Folder.LabelW > 0 {
				return i
			}
		}
		t.Fatal("example1 has no statement with a labelled domain")
		return 0
	}
	for name, corrupt := range map[string]func(s *ddg.BuilderState){
		"intact":        func(*ddg.BuilderState) {},
		"stmt block":    func(s *ddg.BuilderState) { s.Stmts[0].Block = isa.BlockID(len(prog.Blocks)) },
		"instr block":   func(s *ddg.BuilderState) { s.Instrs[0].Ref.Block = s.Stmts[1].Block },
		"instr context": func(s *ddg.BuilderState) { s.Instrs[0].Ctx += "/b0" },
		"repeated bundle": func(s *ddg.BuilderState) {
			s.Deps = append(s.Deps, s.Deps[len(s.Deps)-1])
		},
		"unknown kind": func(s *ddg.BuilderState) {
			d := s.Deps[0]
			d.Kind = 9
			s.Deps = append(s.Deps, d)
		},
		"older format": func(s *ddg.BuilderState) { s.Format = 0 },
		"derived with a folder": func(s *ddg.BuilderState) {
			mf := fold.NewMultiFolder(0, 0, fold.DefaultMaxPieces).State()
			s.Deps[derived(s)].Folder = &mf
		},
		"derived count": func(s *ddg.BuilderState) { s.Deps[derived(s)].Count++ },
		"derived missing": func(s *ddg.BuilderState) {
			i := derived(s)
			s.Deps = append(s.Deps[:i], s.Deps[i+1:]...)
		},
		"unlabelled domain": func(s *ddg.BuilderState) {
			f := &s.Stmts[labelled(s)].Folder
			f.LabelW, f.LabelFit, f.LastLbl = 0, nil, nil
		},
	} {
		var s ddg.BuilderState
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		if s.Stmts[0].Block == s.Stmts[1].Block {
			t.Fatal("the first two statements share a block; pick others")
		}
		corrupt(&s)
		err := ddg.NewBuilder(prog, ddg.DefaultOptions()).Restore(&s)
		if (err == nil) != (name == "intact") {
			t.Errorf("%s: Restore returned %v", name, err)
		}
		t.Logf("%s: %v", name, err)
	}
}

// TestBundlesSplitByKind: a value loaded in one block and stored back
// to the same word in the next makes two bundles between the same two
// instructions, register flow and anti; each keeps its own points on
// both engines.
func TestBundlesSplitByKind(t *testing.T) {
	pb := isa.NewProgram("load-then-store-back")
	a := pb.Global("A", 16)
	f := pb.Func("main", 0)
	base := f.IConst(a.Base)
	f.Loop("L", f.IConst(0), f.IConst(8), 1, func(i isa.Reg) {
		x := f.LoadIdx(base, i, 0)
		f.If(f.CmpGE(i, f.IConst(0)), func() { f.StoreIdx(base, i, 0, x) }, nil)
	})
	f.Halt()
	pb.SetMain(f)
	prog := pb.MustBuild()
	for _, shards := range []int{0, 2} {
		opts := core.DefaultRunOptions()
		opts.ParallelDDG = shards
		p, err := core.Run(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[ddg.Kind]uint64{}
		for _, d := range p.DDG.Deps {
			if d.Src.Op == isa.Load && d.Dst.Op == isa.Store {
				kinds[d.Kind] += d.Count
			}
		}
		if len(kinds) != 2 || kinds[ddg.FlowReg] != 8 || kinds[ddg.Anti] != 8 {
			t.Fatalf("shards=%d: load -> store bundles by kind %v, want 8 register-flow and 8 anti points", shards, kinds)
		}
	}
}
