package transform

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/feedback"
	"polyprof/internal/isa"
	"polyprof/internal/sched"
	"polyprof/internal/workloads"
)

// optimizeWorkload profiles a bundled workload and runs the full
// optimize pipeline over it.
func optimizeWorkload(t *testing.T, name string, opts Options) (*core.Profile, *Report) {
	t.Helper()
	spec := workloads.ByName(name)
	if spec == nil {
		t.Fatalf("unknown workload %q", name)
	}
	p, err := core.Run(spec.Build(), core.DefaultRunOptions())
	if err != nil {
		t.Fatalf("profile %s: %v", name, err)
	}
	rep, err := feedback.AnalyzeChecked(p)
	if err != nil {
		t.Fatalf("analyze %s: %v", name, err)
	}
	opt, err := Optimize(p, rep.Model, rep.AllTransforms(), opts)
	if err != nil {
		dumpReport(t, opt)
		t.Fatalf("optimize %s: %v", name, err)
	}
	return p, opt
}

// dumpReport writes the optimize report where CI picks it up as an
// artifact on failure.
func dumpReport(t *testing.T, opt *Report) {
	t.Helper()
	if opt == nil {
		return
	}
	data, err := json.MarshalIndent(opt, "", "  ")
	if err != nil {
		return
	}
	path := os.Getenv("POLYPROF_OPTJSON_PATH")
	if path == "" {
		path = "OPTIMIZED_report.json"
	}
	if err := os.WriteFile(path, data, 0o644); err == nil {
		t.Logf("optimize report written to %s", path)
	}
}

// equivalenceSubset keeps the default test run fast; the CI leg sets
// POLYPROF_OPT_EXHAUSTIVE=1 to cover every bundled workload.
var equivalenceSubset = map[string]bool{
	"backprop":  true,
	"hotspot":   true,
	"jacobi-2d": true,
	"gemm":      true,
	"trisolv":   true,
	"seidel-2d": true,
	"example1":  true,
	"example2":  true,
}

// TestOptimizeEquivalenceMatrix is the output-equality matrix: every
// bundled workload, every variant the engine decides to apply
// (interchange, tiling, both) must execute to a bit-identical final
// memory image.  Refusals are fine; an applied-but-unverified variant
// is a hard failure.
func TestOptimizeEquivalenceMatrix(t *testing.T) {
	exhaustive := os.Getenv("POLYPROF_OPT_EXHAUSTIVE") == "1"
	applied := 0
	for _, name := range workloads.Names() {
		if !exhaustive && !equivalenceSubset[name] {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			_, opt := optimizeWorkload(t, name, Options{})
			for _, c := range opt.Candidates {
				if c.Refused != nil {
					t.Logf("%s %s: refused: %s", name, c.Nest, c.Refused)
					continue
				}
				for _, v := range c.Variants {
					if v.Refused != nil {
						t.Logf("%s %s %s: refused: %s", name, c.Nest, v.Kind, v.Refused)
						continue
					}
					if !v.Applied || !v.Verified {
						dumpReport(t, opt)
						t.Errorf("%s %s %s: applied=%v verified=%v", name, c.Nest, v.Kind, v.Applied, v.Verified)
						continue
					}
					applied++
					t.Logf("%s %s %s: verified, measured speedup %.3f", name, c.Nest, v.Kind, v.MeasuredSpeedup)
				}
			}
		})
	}
	if applied == 0 {
		t.Errorf("no transformation applied anywhere in the matrix")
	}
}

// TestBackpropMeasuredSpeedup pins the acceptance criterion: the
// backprop case study must report a measured speedup > 1.0 from an
// applied interchange or tiling.
func TestBackpropMeasuredSpeedup(t *testing.T) {
	_, opt := optimizeWorkload(t, "backprop", Options{})
	if opt.BestSpeedup <= 1.0 {
		dumpReport(t, opt)
		t.Fatalf("backprop best measured speedup = %.3f, want > 1.0 (best %q)", opt.BestSpeedup, opt.Best)
	}
	t.Logf("backprop best measured speedup %.3f from %s", opt.BestSpeedup, opt.Best)
}

// TestCandidateDedup: backprop's bpnn_adjust_weights runs twice (two
// dynamic contexts over the same static loops); the engine must merge
// them into one candidate rather than rewriting the nest twice.
func TestCandidateDedup(t *testing.T) {
	_, opt := optimizeWorkload(t, "backprop", Options{})
	merged := 0
	for _, c := range opt.Candidates {
		if c.Contexts >= 2 {
			merged++
			t.Logf("nest %s merged %d contexts", c.Nest, c.Contexts)
		}
	}
	// bpnn_adjust_weights runs twice (hidden->out and in->hidden): its
	// nest must show up once with both contexts, not twice.
	if merged == 0 {
		t.Errorf("no candidate merged multiple dynamic contexts; adjust_weights should")
	}
}

// TestDegradedRefuses: a run whose DDG degraded under budget pressure
// must refuse every transformation conservatively.
func TestDegradedRefuses(t *testing.T) {
	spec := workloads.ByName("jacobi-2d")
	bud := budget.New(context.Background(), budget.Limits{MaxShadowBytes: 1 << 10})
	ro := core.DefaultRunOptions()
	ro.Budget = bud
	p, err := core.Run(spec.Build(), ro)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if p.DDG.Degraded == nil {
		t.Skip("shadow budget did not trip; degradation path not reachable here")
	}
	rep, err := feedback.AnalyzeChecked(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	opt, err := Optimize(p, rep.Model, rep.AllTransforms(), Options{})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if opt.Refused == nil || opt.Refused.Code != RefuseDegradedDDG {
		t.Fatalf("degraded run not refused: %+v", opt.Refused)
	}
	if len(opt.Candidates) != 0 {
		t.Fatalf("degraded run still produced %d candidates", len(opt.Candidates))
	}
}

// illegalInterchangeProgram builds a 2-deep nest carrying the classic
// anti-lexicographic dependence A[i+1][j-1] = f(A[i][j]): distance
// (+1,-1), legal as written, illegal under interchange.
func illegalInterchangeProgram(n int64) *isa.Program {
	pb := isa.NewProgram("illegal-interchange")
	a := pb.Global("A", (n+2)*(n+2))

	f := pb.Func("kernel", 0)
	f.SetFile("illegal.c")
	f.At(10)
	base := f.IConst(a.Base)
	width := f.IConst(n + 2)
	one := f.IConst(1)
	f.Loop("Li", f.IConst(0), f.IConst(n), 1, func(i isa.Reg) {
		f.At(11)
		f.Loop("Lj", f.IConst(1), f.IConst(n), 1, func(j isa.Reg) {
			f.At(12)
			// src = A[i][j]
			v := f.LoadIdx(base, f.Add(f.Mul(i, width), j), 0)
			inc := f.Add(v, one)
			// dst = A[i+1][j-1]
			idx1 := f.Add(f.Mul(f.Add(i, one), width), f.Sub(j, one))
			f.StoreIdx(base, idx1, 0, inc)
		})
	})
	f.RetVoid()

	m := pb.Func("main", 0)
	m.SetFile("illegal.c")
	m.At(1)
	mbase := m.IConst(a.Base)
	m.Loop("Linit", m.IConst(0), m.IConst((n+2)*(n+2)), 1, func(i isa.Reg) {
		m.StoreIdx(mbase, i, 0, i)
	})
	m.Call(f.ID())
	m.Halt()
	pb.SetMain(m)
	return pb.MustBuild()
}

// triangularProgram builds a perfectly nested 2-deep loop with a
// triangular inner bound (j < i): canonical everywhere except
// rectangularity, so the structural gate must refuse it.
func triangularProgram(n int64) *isa.Program {
	pb := isa.NewProgram("triangular")
	a := pb.Global("A", n*n)

	f := pb.Func("kernel", 0)
	f.SetFile("tri.c")
	f.At(20)
	base := f.IConst(a.Base)
	width := f.IConst(n)
	one := f.IConst(1)
	f.Loop("Li", f.IConst(0), f.IConst(n), 1, func(i isa.Reg) {
		f.At(21)
		f.Loop("Lj", f.IConst(0), i, 1, func(j isa.Reg) {
			f.At(22)
			idx := f.Add(f.Mul(i, width), j)
			v := f.LoadIdx(base, idx, 0)
			f.StoreIdx(base, idx, 0, f.Add(v, one))
		})
	})
	f.RetVoid()

	m := pb.Func("main", 0)
	m.SetFile("tri.c")
	m.At(1)
	mbase := m.IConst(a.Base)
	m.Loop("Linit", m.IConst(0), m.IConst(n*n), 1, func(i isa.Reg) {
		m.StoreIdx(mbase, i, 0, i)
	})
	m.Call(f.ID())
	m.Halt()
	pb.SetMain(m)
	return pb.MustBuild()
}

// TestLegalityRefusals is the table-driven refusal matrix: programs
// with known-illegal or structurally untransformable nests must be
// refused with the matching structured reason — never silently
// applied.
func TestLegalityRefusals(t *testing.T) {
	cases := []struct {
		name string
		prog func() *isa.Program
		// wantCodes: acceptable refusal codes at candidate or variant
		// level for the nest of interest.
		wantCodes map[string]bool
	}{
		{
			// The scheduler spots the (+1,-1) dependence and proposes a
			// skewed schedule instead — which the rectangular rewriter
			// refuses.  The forced-interchange negative-distance case is
			// TestForcedIllegalInterchange below.
			name:      "skew-suggested-for-negative-distance",
			prog:      func() *isa.Program { return illegalInterchangeProgram(24) },
			wantCodes: map[string]bool{RefuseNeedsSkew: true, RefuseNegativeDistance: true, RefuseStarDep: true},
		},
		{
			name:      "triangular-bounds",
			prog:      func() *isa.Program { return triangularProgram(24) },
			wantCodes: map[string]bool{RefuseNonRectangular: true},
		},
		{
			// trisolv's scalar reload between the loops makes the nest
			// imperfect before rectangularity is even considered.
			name:      "trisolv-imperfect-triangular",
			prog:      func() *isa.Program { return workloads.ByName("trisolv").Build() },
			wantCodes: map[string]bool{RefuseImperfect: true, RefuseNonRectangular: true, RefusePartialBand: true, RefuseNeedsSkew: true, RefuseNegativeDistance: true, RefuseStarDep: true},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, err := core.Run(tc.prog(), core.DefaultRunOptions())
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			rep, err := feedback.AnalyzeChecked(p)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			opt, err := Optimize(p, rep.Model, rep.AllTransforms(), Options{})
			if err != nil {
				t.Fatalf("optimize: %v", err)
			}
			refusals := map[string]int{}
			for _, c := range opt.Candidates {
				if c.Refused != nil {
					refusals[c.Refused.Code]++
				}
				for _, v := range c.Variants {
					if v.Refused != nil {
						refusals[v.Refused.Code]++
					}
					if v.Applied && !v.Verified {
						t.Errorf("variant %s applied but not verified", v.Kind)
					}
				}
			}
			found := false
			for code := range refusals {
				if tc.wantCodes[code] {
					found = true
				}
			}
			if len(refusals) > 0 && !found {
				t.Errorf("refusal codes %v, want one of %v", refusals, tc.wantCodes)
			}
			t.Logf("refusals: %v", refusals)
		})
	}
}

// TestForcedIllegalInterchange drives the legality gate head-on: the
// (+1,-1) dependence in illegalInterchangeProgram makes interchange
// illegal, and the scheduler would propose skewing instead — so we
// force the interchange through ApplySpec and require the engine to
// refuse it with negative-distance, never apply it.
func TestForcedIllegalInterchange(t *testing.T) {
	p, err := core.Run(illegalInterchangeProgram(24), core.DefaultRunOptions())
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	rep, err := feedback.AnalyzeChecked(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var target *sched.NestTransform
	for _, tr := range rep.AllTransforms() {
		if tr.Nest.Depth() == 2 && tr.BandStart == 0 {
			target = tr
			break
		}
	}
	if target == nil {
		t.Fatalf("no 2-deep nest suggestion found")
	}
	v, err := ApplySpec(p, rep.Model, target, VariantSpec{Interchange: true, Perm: []int{1, 0}}, Options{})
	if err != nil {
		t.Fatalf("ApplySpec: %v", err)
	}
	if v.Applied {
		t.Fatalf("illegal interchange was applied")
	}
	if v.Refused == nil {
		t.Fatalf("illegal interchange neither applied nor refused")
	}
	if v.Refused.Code != RefuseNegativeDistance && v.Refused.Code != RefuseStarDep {
		t.Fatalf("refusal code %s (%s), want %s", v.Refused.Code, v.Refused.Detail, RefuseNegativeDistance)
	}
	t.Logf("forced interchange refused: %s", v.Refused)
}

// TestCheckLegalDirect unit-tests the lexicographic check on synthetic
// distance vectors, including the forced illegal interchange.
func TestCheckLegalDirect(t *testing.T) {
	mk := func(common int, star bool, dists ...[2]int64) *sched.Dep {
		d := &sched.Dep{Common: common, Star: star}
		for _, b := range dists {
			d.Dist = append(d.Dist, sched.DistBound{Min: b[0], Max: b[1], MinOK: true, MaxOK: true})
		}
		return d
	}
	cases := []struct {
		name     string
		deps     []*sched.Dep
		order    []int
		tile     bool
		wantCode string // "" = legal
	}{
		{"identity-positive", []*sched.Dep{mk(2, false, [2]int64{1, 1}, [2]int64{-1, -1})}, []int{0, 1}, false, ""},
		{"interchange-negative", []*sched.Dep{mk(2, false, [2]int64{1, 1}, [2]int64{-1, -1})}, []int{1, 0}, false, RefuseNegativeDistance},
		{"tile-not-permutable", []*sched.Dep{mk(2, false, [2]int64{1, 1}, [2]int64{-1, -1})}, []int{0, 1}, true, RefuseNegativeDistance},
		{"interchange-zero-ok", []*sched.Dep{mk(2, false, [2]int64{0, 0}, [2]int64{1, 3})}, []int{1, 0}, false, ""},
		{"tile-all-nonneg", []*sched.Dep{mk(2, false, [2]int64{0, 2}, [2]int64{1, 3})}, []int{0, 1}, true, ""},
		{"star-refused", []*sched.Dep{mk(2, true)}, []int{1, 0}, false, RefuseStarDep},
		{"machinery-skipped", []*sched.Dep{mk(1, false, [2]int64{0, 0})}, []int{1, 0}, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := checkLegal(tc.deps, 0, 2, tc.order, tc.tile)
			switch {
			case tc.wantCode == "" && ref != nil:
				t.Fatalf("unexpected refusal %s", ref)
			case tc.wantCode != "" && ref == nil:
				t.Fatalf("expected refusal %s, got legal", tc.wantCode)
			case tc.wantCode != "" && ref.Code != tc.wantCode:
				t.Fatalf("refusal code %s, want %s", ref.Code, tc.wantCode)
			}
		})
	}
}

// TestOracleCatchesMismatch feeds the oracle two differing memory
// images and expects a hard error.
func TestOracleCatchesMismatch(t *testing.T) {
	base := &Measurement{mem: []uint64{1, 2, 3}}
	same := &Measurement{mem: []uint64{1, 2, 3}}
	diff := &Measurement{mem: []uint64{1, 9, 3}}
	if err := verifyOutputs("p", "n", "interchange", base, same); err != nil {
		t.Fatalf("identical images rejected: %v", err)
	}
	if err := verifyOutputs("p", "n", "interchange", base, diff); err == nil {
		t.Fatalf("differing images accepted")
	}
}

// TestTiledExecutionCounts sanity-checks that a tiled rewrite still
// executes (smoke for the clamped bounds): measured cycle count must
// be positive for every verified variant.
func TestTiledExecutionCounts(t *testing.T) {
	_, opt := optimizeWorkload(t, "backprop", Options{TileSize: 4})
	for _, c := range opt.Candidates {
		for _, v := range c.Variants {
			if v.Verified && (v.Measured == nil || v.Measured.Cycles == 0) {
				t.Errorf("%s %s: verified but no cycle measurement", c.Nest, v.Kind)
			}
		}
	}
	if opt.TileSize != 4 {
		t.Errorf("tile size %d, want 4", opt.TileSize)
	}
}
