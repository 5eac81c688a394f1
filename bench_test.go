// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index):
//
//	Fig. 2   loop-nesting-tree / recursive-component-set construction
//	Fig. 3   dynamic IIV profiling of the two illustrating examples
//	Tab. 1/2 dependency stream folding of the backprop kernel
//	Fig. 6   pseudo-assembler listing of that kernel
//	Fig. 7   annotated flame graph for backprop
//	Tab. 3   backprop case study (interchange + SIMD, speedup estimate)
//	Tab. 4   GemsFDTD case study (3D tiling + wavefront, speedup estimate)
//	Tab. 5   full Rodinia suite summary (Experiments I and II)
//	+ ablation benches for the design decisions listed in DESIGN.md.
//
// Run with: go test -bench=. -benchmem
package polyprof_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"polyprof"
	"polyprof/internal/cct"
	"polyprof/internal/core"
	"polyprof/internal/ddg"
	"polyprof/internal/evaluation"
	"polyprof/internal/feedback"
	"polyprof/internal/fold"
	"polyprof/internal/isa"
	"polyprof/internal/parddg"
	"polyprof/internal/sched"
	"polyprof/internal/staticpoly"
	"polyprof/internal/vm"
	"polyprof/internal/workloads"
)

// --- Fig. 2: control-structure construction -----------------------------

func BenchmarkFig2LoopForest(b *testing.B) {
	prog := workloads.Example1()
	for i := 0; i < b.N; i++ {
		st, err := core.AnalyzeStructure(prog, core.Env{})
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Forest.Loops) == 0 {
			b.Fatal("no loops recovered")
		}
	}
}

func BenchmarkFig2RecursiveComponents(b *testing.B) {
	prog := workloads.Example2()
	for i := 0; i < b.N; i++ {
		st, err := core.AnalyzeStructure(prog, core.Env{})
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Comps.Components) != 1 {
			b.Fatal("recursive component not recovered")
		}
	}
}

// --- Fig. 3: dynamic interprocedural iteration vectors -------------------

func BenchmarkFig3Example1IIV(b *testing.B) {
	prog := workloads.Example1()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(prog, core.DefaultRunOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Example2Recursion(b *testing.B) {
	prog := workloads.Example2()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(prog, core.DefaultRunOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 1 & 2: dependency stream folding -----------------------------

// BenchmarkTable2Folding folds the three dependency streams of the
// paper's Table 1/2 (backprop layer-forward kernel, cj in [0,15], ck in
// [0,42]) and checks the affine results.
func BenchmarkTable2Folding(b *testing.B) {
	const nj, nk = 16, 43
	for i := 0; i < b.N; i++ {
		ident := fold.NewFolder(2, 2) // I1->I2, I2->I4
		acc := fold.NewFolder(2, 2)   // I4->I4
		for j := int64(0); j < nj; j++ {
			for k := int64(0); k < nk; k++ {
				ident.Add([]int64{j, k}, []int64{j, k})
				if k >= 1 {
					acc.Add([]int64{j, k}, []int64{j, k - 1})
				}
			}
		}
		if p := ident.Finish(); !p.Exact || p.Fn == nil {
			b.Fatal("identity dependence did not fold")
		}
		if p := acc.Finish(); !p.Exact || p.Fn == nil {
			b.Fatal("accumulation dependence did not fold")
		}
	}
}

// BenchmarkTable1DependencyStream profiles the backprop twin end to end
// and reports the dependence-edge statistics that feed Table 1.
func BenchmarkTable1DependencyStream(b *testing.B) {
	prog := workloads.Backprop(workloads.DefaultBackpropParams())
	var deps int
	for i := 0; i < b.N; i++ {
		p, err := core.Run(prog, core.DefaultRunOptions())
		if err != nil {
			b.Fatal(err)
		}
		deps = len(p.DDG.Deps)
	}
	b.ReportMetric(float64(deps), "folded-deps")
}

// --- Fig. 6: pseudo-assembler ---------------------------------------------

func BenchmarkFig6Disasm(b *testing.B) {
	prog := workloads.Backprop(workloads.DefaultBackpropParams())
	var n int
	for i := 0; i < b.N; i++ {
		n = len(prog.DisasmFunc(prog.FuncByName("bpnn_layerforward")))
	}
	b.ReportMetric(float64(n), "listing-bytes")
}

// --- Fig. 7: annotated flame graph ----------------------------------------

func BenchmarkFig7FlameGraph(b *testing.B) {
	rep, err := polyprof.Profile(workloads.Backprop(workloads.DefaultBackpropParams()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		bytes = len(rep.FlameGraph(1200, 18))
	}
	b.ReportMetric(float64(bytes), "svg-bytes")
}

// --- Tables 3 & 4: case studies -------------------------------------------

func benchCaseStudy(b *testing.B, name string) {
	spec := workloads.ByName(name)
	var rows []evaluation.CaseStudyRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = evaluation.CaseStudy(*spec, 0.05)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, r := range rows {
		b.Logf("nest %s: %s -> %.1fx", r.Region, r.Transform, r.SpeedupEst)
		if r.SpeedupEst > best {
			best = r.SpeedupEst
		}
	}
	b.ReportMetric(best, "max-speedup-x")
}

func BenchmarkTable3Backprop(b *testing.B) { benchCaseStudy(b, "backprop") }
func BenchmarkTable4GemsFDTD(b *testing.B) { benchCaseStudy(b, "gemsfdtd") }

// --- Table 5: full Rodinia suite (Experiments I and II) -------------------

var (
	suiteOnce sync.Once
	suiteRows []*evaluation.BenchResult
	suiteErr  error
)

func suite() ([]*evaluation.BenchResult, error) {
	suiteOnce.Do(func() { suiteRows, suiteErr = evaluation.RunRodinia() })
	return suiteRows, suiteErr
}

func BenchmarkTable5Rodinia(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := evaluation.RunRodinia()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println()
			fmt.Print(evaluation.RenderTable5(rows))
		}
	}
}

// BenchmarkTable5StaticBaseline times Experiment II alone: the
// Polly-like analyzer over the whole suite.
func BenchmarkTable5StaticBaseline(b *testing.B) {
	progs := make([]*isa.Program, 0, 19)
	for _, spec := range workloads.Rodinia() {
		progs = append(progs, spec.Build())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			res := staticpoly.Analyze(p)
			if len(res.Funcs) == 0 {
				b.Fatal("no verdicts")
			}
		}
	}
}

// BenchmarkProfilingOverhead reports the per-stage cost of the dynamic
// pipeline on one mid-size benchmark (the paper's Experiment I reports
// 3h06 of CPU time for the whole suite on their server; our twins are
// laptop scale).
func BenchmarkProfilingOverhead(b *testing.B) {
	prog := workloads.SradV2()

	// nsPerOp collects the final per-stage cost; each sub-benchmark runs
	// several times with growing b.N and the last recording wins.
	nsPerOp := map[string]int64{}
	record := func(name string, b *testing.B) {
		if b.N > 0 {
			nsPerOp[name] = b.Elapsed().Nanoseconds() / int64(b.N)
		}
	}

	b.Run("pass1-structure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeStructure(prog, core.Env{}); err != nil {
				b.Fatal(err)
			}
		}
		record("pass1-structure", b)
	})
	b.Run("pass2-iiv-only", func(b *testing.B) {
		st, _ := core.AnalyzeStructure(prog, core.Env{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RunPass2(prog, st, nil, core.Env{}); err != nil {
				b.Fatal(err)
			}
		}
		record("pass2-iiv-only", b)
	})
	b.Run("pass2-full-ddg", func(b *testing.B) {
		st, _ := core.AnalyzeStructure(prog, core.Env{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			builder := ddg.NewBuilder(prog, ddg.DefaultOptions())
			if _, _, err := core.RunPass2(prog, st, builder, core.Env{}); err != nil {
				b.Fatal(err)
			}
			builder.Finish()
		}
		record("pass2-full-ddg", b)
	})
	// The same stage on the sharded parallel engine at several shard
	// counts; compare against pass2-full-ddg for the speedup (expect
	// ~1x on a single-core runner — the engine pipelines across cores,
	// it cannot create them).
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		name := fmt.Sprintf("pass2-full-ddg-par%d", shards)
		b.Run(name, func(b *testing.B) {
			st, _ := core.AnalyzeStructure(prog, core.Env{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := parddg.NewEngine(prog, parddg.Options{Shards: shards, DDG: ddg.DefaultOptions()})
				if _, _, err := core.RunPass2(prog, st, eng, core.Env{}); err != nil {
					eng.Close()
					b.Fatal(err)
				}
				if _, err := eng.FinishChecked(); err != nil {
					b.Fatal(err)
				}
			}
			record(name, b)
		})
	}
	b.Run("scheduler-feedback", func(b *testing.B) {
		p, err := core.Run(prog, core.DefaultRunOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := feedback.Analyze(p); rep.Best == nil {
				b.Fatal("no region")
			}
		}
		record("scheduler-feedback", b)
	})

	if path := benchJSONPath(); path != "" {
		out := evaluation.BenchBaseline{Meta: collectBenchMeta(), Stages: nsPerOp}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote per-stage ns/op to %s", path)
	}
}

// collectBenchMeta pins the machine and revision a baseline was
// measured on, so `polyprof overhead -compare` can report
// apples-to-oranges runs.
func collectBenchMeta() *evaluation.BenchMeta {
	m := &evaluation.BenchMeta{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Go:         runtime.Version(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Rev = strings.TrimSpace(string(out))
	}
	return m
}

// benchJSONPath decides where BenchmarkProfilingOverhead writes its
// machine-readable per-stage results.  Unset/0/false disables the
// emission (the default), 1/true selects BENCH_overhead.json, and any
// other value is used as an explicit output path.
func benchJSONPath() string {
	switch v := os.Getenv("POLYPROF_BENCHJSON"); v {
	case "", "0", "false":
		return ""
	case "1", "true":
		return "BENCH_overhead.json"
	default:
		return v
	}
}

// TestBenchBaselineEmission: the committed baseline loads with its
// meta, and a fresh emission keeps its shape and loads back.
func TestBenchBaselineEmission(t *testing.T) {
	committed, err := os.ReadFile("BENCH_overhead.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := evaluation.LoadBaseline(committed)
	if err != nil {
		t.Fatal(err)
	}
	if base.Meta == nil || base.Meta.NumCPU == 0 || len(base.Stages) == 0 {
		t.Fatalf("committed baseline lost its meta or stages: %+v", base)
	}
	data, err := json.Marshal(evaluation.BenchBaseline{Meta: collectBenchMeta(), Stages: map[string]int64{"pass1-structure": 1}})
	if err != nil {
		t.Fatal(err)
	}
	var shape map[string]map[string]any
	if err := json.Unmarshal(data, &shape); err != nil {
		t.Fatal(err)
	}
	if _, ok := shape["stages"]; !ok || len(shape) != 2 {
		t.Errorf("emission is not {meta, stages}: %s", data)
	}
	for _, k := range []string{"gomaxprocs", "numcpu", "go", "timestamp"} {
		if _, ok := shape["meta"][k]; !ok {
			t.Errorf("emitted meta lacks %q: %s", k, data)
		}
	}
	back, err := evaluation.LoadBaseline(data)
	if err != nil || back.Meta == nil || back.Stages["pass1-structure"] != 1 {
		t.Fatalf("emission does not load back: %+v, %v", back, err)
	}
}

// --- Ablations (design decisions from DESIGN.md) ---------------------------

// BenchmarkAblationRecursionDepth shows the point of the
// recursive-component-set: IIV depth stays constant (one dimension)
// while the recursion deepens, whereas the calling-context tree —
// measured side by side — grows linearly with it.
func BenchmarkAblationRecursionDepth(b *testing.B) {
	for _, depth := range []int64{4, 16, 64} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			prog := recursionTower(depth)
			var maxDims, cctDepth int
			for i := 0; i < b.N; i++ {
				p, err := core.Run(prog, core.DefaultRunOptions())
				if err != nil {
					b.Fatal(err)
				}
				maxDims = 0
				for _, s := range p.DDG.Stmts {
					if s.Depth > maxDims {
						maxDims = s.Depth
					}
				}
				tree := cct.New(prog.Main)
				if err := vm.New(prog, tree).Run(); err != nil {
					b.Fatal(err)
				}
				cctDepth = tree.MaxDepth
			}
			b.ReportMetric(float64(maxDims), "iiv-dims")
			b.ReportMetric(float64(cctDepth), "cct-depth")
		})
	}
}

// recursionTower builds a program recursing to the given depth with a
// store at each level.
func recursionTower(depth int64) *isa.Program {
	pb := isa.NewProgram(fmt.Sprintf("tower-%d", depth))
	g := pb.Global("A", depth+1)
	f := pb.Func("rec", 1)
	d := f.Arg(0)
	base := f.IConst(g.Base)
	f.StoreIdx(base, f.MinI(d, f.IConst(depth)), 0, d)
	cond := f.CmpLT(d, f.IConst(depth))
	f.If(cond, func() {
		f.Call(f.ID(), f.Add(d, f.IConst(1)))
	}, nil)
	f.RetVoid()
	m := pb.Func("main", 0)
	m.Call(f.ID(), m.IConst(0))
	m.Halt()
	pb.SetMain(m)
	return pb.MustBuild()
}

// BenchmarkAblationSCEVRemoval compares the statement/dependence counts
// fed to the scheduler with and without SCEV elimination (Sec. 5: the
// removal is what shrinks thousand-statement programs to hundreds).
func BenchmarkAblationSCEVRemoval(b *testing.B) {
	prog := workloads.Backprop(workloads.DefaultBackpropParams())
	p, err := core.Run(prog, core.DefaultRunOptions())
	if err != nil {
		b.Fatal(err)
	}
	withSCEV := len(p.DDG.Deps)
	scevs := 0
	for _, in := range p.DDG.Instrs {
		if in.IsSCEV {
			scevs++
		}
	}
	b.ReportMetric(float64(withSCEV), "deps-after-removal")
	b.ReportMetric(float64(scevs), "scev-instrs-removed")
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(prog, core.DefaultRunOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFusionHeuristics compares smartfuse and maxfuse
// component counts over the suite (Table 5's fusion column).
func BenchmarkAblationFusionHeuristics(b *testing.B) {
	rows, err := suite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var smart, max int
	for i := 0; i < b.N; i++ {
		smart, max = 0, 0
		for _, r := range rows {
			if r.Report.Best == nil {
				continue
			}
			comps := r.Report.Model.Components(r.Report.Best.Node)
			smart += r.Report.Model.FuseComponents(comps, sched.SmartFuse)
			max += r.Report.Model.FuseComponents(comps, sched.MaxFuse)
		}
	}
	b.ReportMetric(float64(smart), "smartfuse-components")
	b.ReportMetric(float64(max), "maxfuse-components")
}

// BenchmarkAblationPiecewiseDeps compares transformable-region discovery
// with single-piece vs. piecewise dependence folding on the in-place
// hotspot stencil (DESIGN.md decision 3: over-approximation keeps
// irregular programs analyzable).
func BenchmarkAblationPiecewiseDeps(b *testing.B) {
	prog := workloads.Hotspot()
	var found bool
	for i := 0; i < b.N; i++ {
		p, err := core.Run(prog, core.DefaultRunOptions())
		if err != nil {
			b.Fatal(err)
		}
		rep := feedback.Analyze(p)
		found = rep.Best != nil
	}
	if !found {
		b.Fatal("piecewise folding must recover hotspot's wavefront region")
	}
}

// BenchmarkAblationLatticeFolding contrasts the lattice (stride)
// folding extension with the paper's published folder on a stride-2
// kernel: with lattices the statement domains stay exact; without, they
// over-approximate (the paper's stated limitation for hand-linearized
// programs).
func BenchmarkAblationLatticeFolding(b *testing.B) {
	prog := stridedKernel()
	for _, mode := range []struct {
		name      string
		noStrides bool
	}{{"with-lattices", false}, {"without-lattices", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var exactOps, totalOps uint64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultRunOptions()
				opts.DDG.NoStrideDetection = mode.noStrides
				p, err := core.Run(prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				exactOps, totalOps = 0, 0
				for _, s := range p.DDG.Stmts {
					totalOps += s.Count
					if s.Domain.Exact {
						exactOps += s.Count
					}
				}
			}
			b.ReportMetric(100*float64(exactOps)/float64(totalOps), "%exact-stmt-instances")
		})
	}
}

// stridedKernel guards its statement with a modulo condition (the
// heartwall/lud pattern): the statement executes at every second
// canonical iteration, so its domain is a lattice.
func stridedKernel() *isa.Program {
	pb := isa.NewProgram("strided")
	g := pb.Global("A", 1024)
	m := pb.Func("main", 0)
	base := m.IConst(g.Base)
	m.Loop("Li", m.IConst(0), m.IConst(16), 1, func(i isa.Reg) {
		m.Loop("Lj", m.IConst(0), m.IConst(64), 1, func(j isa.Reg) {
			even := m.CmpEQ(m.Mod(j, m.IConst(2)), m.IConst(0))
			m.If(even, func() {
				idx := m.Add(m.Mul(i, m.IConst(64)), j)
				v := m.FLoadIdx(base, idx, 0)
				m.FStoreIdx(base, idx, 0, m.FAdd(v, v))
			}, nil)
		})
	})
	m.Halt()
	pb.SetMain(m)
	return pb.MustBuild()
}

// BenchmarkFoldingThroughput measures raw folding speed (points/sec) on
// a large affine stream — the scalability claim of Sec. 5.
func BenchmarkFoldingThroughput(b *testing.B) {
	const n = 1 << 16
	coords := make([][2]int64, 0, n)
	for i := int64(0); i < 256; i++ {
		for j := int64(0); j < n/256; j++ {
			coords = append(coords, [2]int64{i, j})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := fold.NewFolder(2, 1)
		lbl := make([]int64, 1)
		for _, c := range coords {
			lbl[0] = 3*c[0] + 5*c[1] + 7
			f.Add(c[:], lbl)
		}
		if p := f.Finish(); p.Fn == nil {
			b.Fatal("fold failed")
		}
	}
	b.SetBytes(int64(len(coords)) * 16)
}

// BenchmarkVM measures raw interpreter speed without instrumentation
// consumers (the QEMU-substitute's baseline overhead).
func BenchmarkVM(b *testing.B) {
	prog := workloads.Backprop(workloads.DefaultBackpropParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeStructure(prog, core.Env{}); err != nil {
			b.Fatal(err)
		}
	}
}
