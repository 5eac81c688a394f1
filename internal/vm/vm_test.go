package vm_test

import (
	"strings"
	"testing"

	"polyprof/internal/cachesim"
	"polyprof/internal/isa"
	"polyprof/internal/trace"
	"polyprof/internal/vm"
)

// buildAndRun builds a tiny program with the given body and returns the
// machine after running it.
func buildAndRun(t *testing.T, memWords int64, body func(f *isa.FuncBuilder)) *vm.Machine {
	t.Helper()
	pb := isa.NewProgram("t")
	if memWords > 0 {
		pb.Global("mem", memWords)
	}
	f := pb.Func("main", 0)
	body(f)
	f.Halt()
	pb.SetMain(f)
	m := vm.New(pb.MustBuild())
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIntegerArithmetic(t *testing.T) {
	m := buildAndRun(t, 16, func(f *isa.FuncBuilder) {
		base := f.IConst(0)
		a := f.IConst(17)
		b := f.IConst(5)
		f.StoreIdx(base, f.IConst(0), 0, f.Add(a, b))            // 22
		f.StoreIdx(base, f.IConst(1), 0, f.Sub(a, b))            // 12
		f.StoreIdx(base, f.IConst(2), 0, f.Mul(a, b))            // 85
		f.StoreIdx(base, f.IConst(3), 0, f.Div(a, b))            // 3
		f.StoreIdx(base, f.IConst(4), 0, f.Mod(a, b))            // 2
		f.StoreIdx(base, f.IConst(5), 0, f.MinI(a, b))           // 5
		f.StoreIdx(base, f.IConst(6), 0, f.MaxI(a, b))           // 17
		f.StoreIdx(base, f.IConst(7), 0, f.CmpLT(b, a))          // 1
		f.StoreIdx(base, f.IConst(8), 0, f.CmpEQ(a, a))          // 1
		f.StoreIdx(base, f.IConst(9), 0, f.CmpGE(b, a))          // 0
		f.StoreIdx(base, f.IConst(10), 0, f.Shl(b, f.IConst(2))) // 20
		f.StoreIdx(base, f.IConst(11), 0, f.Xor(a, b))           // 20
	})
	want := []int64{22, 12, 85, 3, 2, 5, 17, 1, 1, 0, 20, 20}
	for i, w := range want {
		if got := int64(m.Mem()[i]); got != w {
			t.Errorf("mem[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestFloatArithmetic(t *testing.T) {
	m := buildAndRun(t, 8, func(f *isa.FuncBuilder) {
		base := f.IConst(0)
		a := f.FConst(2.5)
		b := f.FConst(0.5)
		f.FStoreIdx(base, f.IConst(0), 0, f.FAdd(a, b))
		f.FStoreIdx(base, f.IConst(1), 0, f.FMul(a, b))
		f.FStoreIdx(base, f.IConst(2), 0, f.FSqrt(f.FConst(9)))
		f.FStoreIdx(base, f.IConst(3), 0, f.FAbs(f.FNeg(a)))
		f.StoreIdx(base, f.IConst(4), 0, f.FCmpLT(b, a))
		f.FStoreIdx(base, f.IConst(5), 0, f.I2F(f.IConst(7)))
		f.StoreIdx(base, f.IConst(6), 0, f.F2I(f.FConst(3.9)))
	})
	wantF := map[int]float64{0: 3.0, 1: 1.25, 2: 3.0, 3: 2.5, 5: 7.0}
	for i, w := range wantF {
		if got := vm.F64(m.Mem()[i]); got != w {
			t.Errorf("mem[%d] = %g, want %g", i, got, w)
		}
	}
	if m.Mem()[4] != 1 || int64(m.Mem()[6]) != 3 {
		t.Errorf("compare/convert results wrong: %v %v", m.Mem()[4], m.Mem()[6])
	}
}

func TestCallReturnValue(t *testing.T) {
	pb := isa.NewProgram("t")
	g := pb.Global("out", 1)
	callee := pb.Func("twice", 1)
	callee.Ret(callee.Add(callee.Arg(0), callee.Arg(0)))
	f := pb.Func("main", 0)
	v := f.Call(callee.ID(), f.IConst(21))
	f.Store(f.IConst(g.Base), 0, v)
	f.Halt()
	pb.SetMain(f)
	m := vm.New(pb.MustBuild())
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := int64(m.Mem()[g.Base]); got != 42 {
		t.Errorf("return value = %d, want 42", got)
	}
	if m.Stats().Calls != 1 {
		t.Errorf("calls = %d, want 1", m.Stats().Calls)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	pb := isa.NewProgram("t")
	f := pb.Func("main", 0)
	f.Div(f.IConst(1), f.IConst(0))
	f.Halt()
	pb.SetMain(f)
	err := vm.New(pb.MustBuild()).Run()
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("want division-by-zero trap, got %v", err)
	}
}

func TestOutOfBoundsTraps(t *testing.T) {
	pb := isa.NewProgram("t")
	pb.Global("mem", 4)
	f := pb.Func("main", 0)
	f.Load(f.IConst(100), 0)
	f.Halt()
	pb.SetMain(f)
	err := vm.New(pb.MustBuild()).Run()
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("want out-of-bounds trap, got %v", err)
	}
	// Negative address too.
	pb2 := isa.NewProgram("t2")
	pb2.Global("mem", 4)
	f2 := pb2.Func("main", 0)
	f2.Store(f2.IConst(-1), 0, f2.IConst(0))
	f2.Halt()
	pb2.SetMain(f2)
	if err := vm.New(pb2.MustBuild()).Run(); err == nil {
		t.Fatal("negative store must trap")
	}
}

func TestStepLimit(t *testing.T) {
	pb := isa.NewProgram("t")
	f := pb.Func("main", 0)
	f.While("forever", func() isa.Reg { return f.IConst(1) }, func() {})
	f.Halt()
	pb.SetMain(f)
	m := vm.New(pb.MustBuild())
	m.MaxSteps = 1000
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("want step-limit error, got %v", err)
	}
}

func TestIndexedAddressing(t *testing.T) {
	m := buildAndRun(t, 16, func(f *isa.FuncBuilder) {
		base := f.IConst(2)
		idx := f.IConst(3)
		f.StoreIdx(base, idx, 1, f.IConst(99)) // mem[2+3+1] = 99
	})
	if got := int64(m.Mem()[6]); got != 99 {
		t.Errorf("indexed store landed wrong: mem[6] = %d", got)
	}
}

// TestControlEventOrdering checks the invariant analyses rely on: the
// instruction event of a terminator precedes its control event, and
// call events carry the callee entry block.
func TestControlEventOrdering(t *testing.T) {
	pb := isa.NewProgram("t")
	callee := pb.Func("g", 0)
	callee.RetVoid()
	f := pb.Func("main", 0)
	f.Call(callee.ID())
	f.Halt()
	pb.SetMain(f)
	prog := pb.MustBuild()

	var events []string
	hook := recorderHook{
		onCtl: func(ev trace.ControlEvent) {
			events = append(events, "ctl:"+ev.Kind.String())
		},
		onIns: func(ev trace.InstrEvent, in *isa.Instr) {
			if in.Op.IsTerminator() {
				events = append(events, "ins:"+in.Op.String())
			}
		},
	}
	if err := vm.New(prog, hook).Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"ctl:jump", "ins:call", "ctl:call", "ins:ret", "ctl:return", "ins:halt"}
	if strings.Join(events, " ") != strings.Join(want, " ") {
		t.Errorf("event order = %v, want %v", events, want)
	}
}

type recorderHook struct {
	onCtl func(trace.ControlEvent)
	onIns func(trace.InstrEvent, *isa.Instr)
}

func (r recorderHook) Control(ev trace.ControlEvent)            { r.onCtl(ev) }
func (r recorderHook) Instr(ev trace.InstrEvent, in *isa.Instr) { r.onIns(ev, in) }

// TestStatsCounters checks the dynamic operation counters.
func TestStatsCounters(t *testing.T) {
	m := buildAndRun(t, 8, func(f *isa.FuncBuilder) {
		base := f.IConst(0)
		f.Loop("L", f.IConst(0), f.IConst(4), 1, func(i isa.Reg) {
			f.FStoreIdx(base, i, 0, f.FConst(1))
		})
	})
	st := m.Stats()
	if st.MemOps != 4 {
		t.Errorf("mem ops = %d, want 4", st.MemOps)
	}
	if st.FPOps < 8 { // 4 ConstF + 4 FStore
		t.Errorf("fp ops = %d, want >= 8", st.FPOps)
	}
	if st.Ops == 0 || st.Jumps == 0 {
		t.Errorf("counters empty: %+v", st)
	}
}

// TestCycleModel: cycles accumulate and reflect cache behavior (a
// repeated hot access costs less than cold misses).
func TestCycleModel(t *testing.T) {
	build := func(stride int64) *isa.Program {
		pb := isa.NewProgram("cycles")
		g := pb.Global("A", 4096)
		f := pb.Func("main", 0)
		base := f.IConst(g.Base)
		f.Loop("L", f.IConst(0), f.IConst(256), 1, func(i isa.Reg) {
			f.FLoadIdx(base, f.Mul(i, f.IConst(stride)), 0)
		})
		f.Halt()
		pb.SetMain(f)
		return pb.MustBuild()
	}

	run := func(stride int64) uint64 {
		m := vm.New(build(stride))
		m.Cost = vm.NewCycleModel(cachesim.Config{
			LineWords: 8, Sets: 8, Ways: 2, HitLatency: 1, MissLatency: 100,
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Cost.Cycles()
	}

	sequential := run(1) // one miss per 8 accesses
	strided := run(16)   // every access misses
	if sequential == 0 || strided == 0 {
		t.Fatal("cycle model accumulated nothing")
	}
	if strided < sequential*2 {
		t.Errorf("strided run (%d cycles) should cost far more than sequential (%d)", strided, sequential)
	}
}
