// Package vm executes isa programs under instrumentation.  It plays the
// role QEMU plays for the paper: a translator/interpreter whose plugin
// hooks expose control transfers, memory addresses and produced integer
// values to the profiling stages, without the profiler ever inspecting
// program semantics directly.
package vm

import (
	"fmt"
	"math"

	"polyprof/internal/budget"
	"polyprof/internal/faultinject"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/trace"
)

// DefaultMaxSteps bounds a run to catch accidentally non-terminating
// workloads; it is far above anything the bundled benchmarks need.
const DefaultMaxSteps = 500_000_000

// DefaultMaxDepth bounds the call stack so unbounded recursion traps
// instead of exhausting host memory.
const DefaultMaxDepth = 1 << 20

// MaxMemWords caps program memory (2 GiB of words); workloads declare
// far less, and hostile images must not drive host allocation.
const MaxMemWords = 1 << 28

// watchdogInterval is how many steps run between watchdog checkpoints
// (budget, deadline, fault injection).  The interpreter loop pays one
// integer comparison per step; everything else is amortized over this
// window.
const watchdogInterval = 1 << 16

// stepFault injects at the VM watchdog checkpoint.
var stepFault = faultinject.Point("vm.step")

// Stats aggregates the dynamic operation counters the paper reports
// (#Ops, #Mops and derived percentages).
type Stats struct {
	Ops    uint64 // all executed instructions
	MemOps uint64 // loads + stores
	FPOps  uint64 // floating point operations
	Calls  uint64 // call events
	Jumps  uint64 // local jump events
}

type frame struct {
	fn   *isa.Func
	regs []uint64
	blk  *isa.Block
	pc   int

	// Return linkage into the caller.
	retDst  isa.Reg
	retCont isa.BlockID
}

// Machine interprets one program.  The zero value is not usable; create
// machines with New.
type Machine struct {
	prog  *isa.Program
	mem   []uint64
	hooks []trace.Hook

	stack      []frame
	stats      Stats
	depthLimit int

	// MaxSteps overrides DefaultMaxSteps when non-zero.
	MaxSteps uint64

	// MaxDepth overrides DefaultMaxDepth when non-zero.
	MaxDepth int

	// Budget, when set, governs the run: its step limit tightens
	// MaxSteps, and the watchdog checkpoint polls it for cancellation,
	// deadline and trace-event exhaustion every watchdogInterval steps.
	Budget *budget.Budget

	// Obs is the span-context this run publishes its dynamic event
	// counters into; the zero Scope targets the process-wide default
	// registry, so standalone machines behave as before.  Its span, when
	// set, receives the live executed-op count at every watchdog
	// checkpoint (once per 2^16 steps) and once at run end, so long runs
	// can be observed without touching the per-step hot path.
	Obs obs.Scope

	// Cost, when set, accumulates simulated cycles during execution
	// (base per-opcode costs plus cache-modeled memory latency).
	Cost *CycleModel

	// EpochEvents, with OnEpoch, pauses the run every EpochEvents
	// executed instructions (exactly at multiples of EpochEvents, so
	// epoch boundaries are deterministic across runs and resumes) and
	// invokes OnEpoch with the machine quiescent: buffered instruction
	// events are flushed first, so downstream sinks have seen the whole
	// epoch.  The hot loop cost is folded into the existing watchdog
	// comparison.
	EpochEvents uint64
	// OnEpoch is called at each epoch boundary with the executed-op
	// count; a non-nil error aborts the run.
	OnEpoch func(events uint64) error

	// restored is non-nil when Restore loaded a checkpoint; Run then
	// continues mid-program instead of starting from main's entry.
	restored *State

	// batch is non-nil when the machine drives exactly one hook and it
	// implements trace.BatchHook: instruction events then buffer in
	// bufEv/bufIn and flush as one InstrBatch call before every control
	// event, at the buffer cap, and when Run returns.
	batch trace.BatchHook
	bufEv []trace.InstrEvent
	bufIn []*isa.Instr
}

// batchCap bounds the instruction-event buffer between flushes so a
// giant straight-line block cannot hold an unbounded batch.
const batchCap = 1024

// New creates a machine for prog with the given instrumentation hooks
// (nil hooks are dropped).
func New(prog *isa.Program, hooks ...trace.Hook) *Machine {
	m := &Machine{prog: prog}
	for _, h := range hooks {
		if h != nil {
			m.hooks = append(m.hooks, h)
		}
	}
	// Batching is only sound with a single hook: with several, deferring
	// one hook's instruction events past another's would reorder the
	// streams relative to each other.
	if len(m.hooks) == 1 {
		if bh, ok := m.hooks[0].(trace.BatchHook); ok {
			m.batch = bh
		}
	}
	return m
}

// Mem exposes the machine memory (valid after Run, or inside hooks).
func (m *Machine) Mem() []uint64 { return m.mem }

// Stats returns the dynamic operation counters of the last run.
func (m *Machine) Stats() Stats { return m.stats }

// F64 interprets a memory word as float64.
func F64(w uint64) float64 { return math.Float64frombits(w) }

// W64 encodes a float64 as a memory word.
func W64(f float64) uint64 { return math.Float64bits(f) }

func (m *Machine) emitControl(ev trace.ControlEvent) {
	if m.batch != nil {
		m.flushInstrs()
		m.batch.Control(ev)
		return
	}
	for _, h := range m.hooks {
		h.Control(ev)
	}
}

func (m *Machine) emitInstr(ev trace.InstrEvent, in *isa.Instr) {
	if m.batch != nil {
		m.bufEv = append(m.bufEv, ev)
		m.bufIn = append(m.bufIn, in)
		if len(m.bufEv) >= batchCap {
			m.flushInstrs()
		}
		return
	}
	for _, h := range m.hooks {
		h.Instr(ev, in)
	}
}

// flushInstrs delivers the buffered instruction events as one batch.
func (m *Machine) flushInstrs() {
	if len(m.bufEv) == 0 {
		return
	}
	m.batch.InstrBatch(m.bufEv, m.bufIn)
	m.bufEv = m.bufEv[:0]
	m.bufIn = m.bufIn[:0]
}

// publishStats records the run's dynamic event counters in the scoped
// metrics registry and its final op count in the scope's span.
// Counting happens in Stats during execution; this publishes once per
// run, so the interpreter loop carries no instrumentation cost.
func (m *Machine) publishStats() {
	m.Obs.Span().SetEvents(m.stats.Ops)
	if !m.Obs.Enabled() {
		return
	}
	m.Obs.Add("vm.runs", 1)
	m.Obs.Add("vm.instructions", m.stats.Ops)
	m.Obs.Add("vm.mem_events", m.stats.MemOps)
	m.Obs.Add("vm.control_events", m.stats.Calls+m.stats.Jumps)
	m.Obs.Add("vm.fp_ops", m.stats.FPOps)
	m.Obs.Observe("vm.run.instructions", m.stats.Ops)
}

// Run executes the program from its main function until Halt, the final
// return from main, or an error (trap, step limit, budget exhaustion).
// The program is validated first so hostile images (bad targets,
// out-of-range registers) fail cleanly instead of panicking.
func (m *Machine) Run() error {
	if err := m.prog.Validate(); err != nil {
		return fmt.Errorf("vm: refusing invalid program: %w", err)
	}
	if m.prog.MemWords > MaxMemWords {
		return fmt.Errorf("vm: program %q wants %d memory words (max %d)",
			m.prog.Name, m.prog.MemWords, MaxMemWords)
	}
	defer m.publishStats()
	if m.batch != nil {
		// Every exit path — halt, trap, budget abort — delivers pending
		// buffered events first, so a batching hook sees the same prefix
		// of the stream a per-event hook would have seen.
		m.bufEv = m.bufEv[:0]
		m.bufIn = m.bufIn[:0]
		defer m.flushInstrs()
	}
	m.depthLimit = m.MaxDepth
	if m.depthLimit <= 0 {
		m.depthLimit = DefaultMaxDepth
	}
	if st := m.restored; st != nil {
		// Resume mid-program: memory, stack and counters come from the
		// checkpoint; the synthetic entry event was already delivered in
		// the original attempt, and the downstream sinks restore their
		// own state to match.
		m.restored = nil
		if err := m.applyState(st); err != nil {
			return err
		}
	} else {
		m.mem = make([]uint64, m.prog.MemWords)
		m.stats = Stats{}
		main := m.prog.Func(m.prog.Main)
		m.stack = m.stack[:0]
		m.push(main, nil, isa.NoReg, isa.NoBlock)

		// Synthetic entry event so the analyses see main's entry block
		// (Fig. 3d step 1 shows exactly this N(M0) event).
		m.emitControl(trace.ControlEvent{
			Kind: trace.Jump, Src: isa.NoBlock, Dst: main.Entry,
			Callee: isa.NoFunc, Caller: isa.NoFunc,
		})
	}

	limit := m.MaxSteps
	if limit == 0 {
		limit = DefaultMaxSteps
	}
	budgetSteps := false
	if bs := m.Budget.StepLimit(); bs > 0 && bs < limit {
		limit, budgetSteps = bs, true
	}

	// The hot loop pays a single comparison per step; the watchdog
	// (fault injection, step limit, deadline/cancellation, trace-event
	// budget) runs every watchdogInterval steps.  nextCheck starts at 0
	// so the first step always checkpoints — fault injection fires
	// deterministically even on tiny programs.
	var nextEpoch uint64
	if m.EpochEvents > 0 && m.OnEpoch != nil {
		nextEpoch = (m.stats.Ops/m.EpochEvents + 1) * m.EpochEvents
	}
	var nextCheck uint64
	counted := m.stats.Ops
	for len(m.stack) > 0 {
		if m.stats.Ops >= nextCheck {
			if err := m.checkpoint(limit, budgetSteps, &counted); err != nil {
				return err
			}
			if nextEpoch > 0 && m.stats.Ops >= nextEpoch {
				m.flushInstrs()
				if err := m.OnEpoch(m.stats.Ops); err != nil {
					return err
				}
				nextEpoch = (m.stats.Ops/m.EpochEvents + 1) * m.EpochEvents
			}
			nextCheck = m.stats.Ops + watchdogInterval
			if nextCheck > limit {
				nextCheck = limit
			}
			if nextEpoch > 0 && nextCheck > nextEpoch {
				nextCheck = nextEpoch
			}
		}
		halt, err := m.step()
		if err != nil {
			return err
		}
		if halt {
			return nil
		}
	}
	return nil
}

// checkpoint is the amortized watchdog body.
func (m *Machine) checkpoint(limit uint64, budgetSteps bool, counted *uint64) error {
	m.Obs.Span().SetEvents(m.stats.Ops)
	if err := stepFault.Hit(); err != nil {
		return fmt.Errorf("vm %q: %w", m.prog.Name, err)
	}
	if m.stats.Ops >= limit {
		if budgetSteps {
			return &budget.Error{
				Resource: budget.ResourceSteps, Stage: "vm",
				Limit: limit, Used: m.stats.Ops,
			}
		}
		return fmt.Errorf("vm: step limit %d exceeded in %q", limit, m.prog.Name)
	}
	if m.Budget != nil {
		if err := m.Budget.Check("vm"); err != nil {
			return err
		}
		if err := m.Budget.CountEvents(m.stats.Ops-*counted, "vm"); err != nil {
			return err
		}
		*counted = m.stats.Ops
	}
	return nil
}

func (m *Machine) push(fn *isa.Func, args []uint64, retDst isa.Reg, retCont isa.BlockID) {
	regs := make([]uint64, fn.NumRegs)
	copy(regs, args)
	m.stack = append(m.stack, frame{
		fn: fn, regs: regs, blk: m.prog.Block(fn.Entry),
		retDst: retDst, retCont: retCont,
	})
}

func (m *Machine) top() *frame { return &m.stack[len(m.stack)-1] }

func (m *Machine) trap(f *frame, format string, args ...interface{}) error {
	in := &f.blk.Code[f.pc]
	return fmt.Errorf("vm trap in %s, block %q, instr %d (%s at %s): %s",
		f.fn.Name, f.blk.Name, f.pc, m.prog.DisasmInstr(in), in.Loc, fmt.Sprintf(format, args...))
}

// step executes one instruction; returns halt=true on Halt.
func (m *Machine) step() (halt bool, err error) {
	f := m.top()
	in := &f.blk.Code[f.pc]
	r := f.regs
	m.stats.Ops++
	if in.Op.IsFP() {
		m.stats.FPOps++
	}

	ev := trace.InstrEvent{Ref: trace.InstrRef{Block: f.blk.ID, Index: int32(f.pc)}, Addr: -1}

	switch in.Op {
	case isa.Nop:
	case isa.ConstI:
		r[in.Dst] = uint64(in.Imm)
	case isa.Mov, isa.FMov:
		r[in.Dst] = r[in.A]
	case isa.Add:
		r[in.Dst] = uint64(int64(r[in.A]) + int64(r[in.B]))
	case isa.Sub:
		r[in.Dst] = uint64(int64(r[in.A]) - int64(r[in.B]))
	case isa.Mul:
		r[in.Dst] = uint64(int64(r[in.A]) * int64(r[in.B]))
	case isa.Div:
		if r[in.B] == 0 {
			return false, m.trap(f, "integer division by zero")
		}
		r[in.Dst] = uint64(int64(r[in.A]) / int64(r[in.B]))
	case isa.Mod:
		if r[in.B] == 0 {
			return false, m.trap(f, "integer modulo by zero")
		}
		r[in.Dst] = uint64(int64(r[in.A]) % int64(r[in.B]))
	case isa.And:
		r[in.Dst] = r[in.A] & r[in.B]
	case isa.Or:
		r[in.Dst] = r[in.A] | r[in.B]
	case isa.Xor:
		r[in.Dst] = r[in.A] ^ r[in.B]
	case isa.Shl:
		r[in.Dst] = uint64(int64(r[in.A]) << (r[in.B] & 63))
	case isa.Shr:
		r[in.Dst] = uint64(int64(r[in.A]) >> (r[in.B] & 63))
	case isa.MinI:
		r[in.Dst] = uint64(min(int64(r[in.A]), int64(r[in.B])))
	case isa.MaxI:
		r[in.Dst] = uint64(max(int64(r[in.A]), int64(r[in.B])))
	case isa.CmpEQ:
		r[in.Dst] = b2w(int64(r[in.A]) == int64(r[in.B]))
	case isa.CmpNE:
		r[in.Dst] = b2w(int64(r[in.A]) != int64(r[in.B]))
	case isa.CmpLT:
		r[in.Dst] = b2w(int64(r[in.A]) < int64(r[in.B]))
	case isa.CmpLE:
		r[in.Dst] = b2w(int64(r[in.A]) <= int64(r[in.B]))
	case isa.CmpGT:
		r[in.Dst] = b2w(int64(r[in.A]) > int64(r[in.B]))
	case isa.CmpGE:
		r[in.Dst] = b2w(int64(r[in.A]) >= int64(r[in.B]))
	case isa.ConstF:
		r[in.Dst] = W64(in.FImm)
	case isa.FAdd:
		r[in.Dst] = W64(F64(r[in.A]) + F64(r[in.B]))
	case isa.FSub:
		r[in.Dst] = W64(F64(r[in.A]) - F64(r[in.B]))
	case isa.FMul:
		r[in.Dst] = W64(F64(r[in.A]) * F64(r[in.B]))
	case isa.FDiv:
		r[in.Dst] = W64(F64(r[in.A]) / F64(r[in.B]))
	case isa.FMin:
		r[in.Dst] = W64(math.Min(F64(r[in.A]), F64(r[in.B])))
	case isa.FMax:
		r[in.Dst] = W64(math.Max(F64(r[in.A]), F64(r[in.B])))
	case isa.FNeg:
		r[in.Dst] = W64(-F64(r[in.A]))
	case isa.FAbs:
		r[in.Dst] = W64(math.Abs(F64(r[in.A])))
	case isa.FSqrt:
		r[in.Dst] = W64(math.Sqrt(F64(r[in.A])))
	case isa.FExp:
		r[in.Dst] = W64(math.Exp(F64(r[in.A])))
	case isa.FLog:
		r[in.Dst] = W64(math.Log(F64(r[in.A])))
	case isa.FCmpEQ:
		r[in.Dst] = b2w(F64(r[in.A]) == F64(r[in.B]))
	case isa.FCmpLT:
		r[in.Dst] = b2w(F64(r[in.A]) < F64(r[in.B]))
	case isa.FCmpLE:
		r[in.Dst] = b2w(F64(r[in.A]) <= F64(r[in.B]))
	case isa.I2F:
		r[in.Dst] = W64(float64(int64(r[in.A])))
	case isa.F2I:
		r[in.Dst] = uint64(int64(F64(r[in.A])))

	case isa.Load, isa.FLoad:
		addr := int64(r[in.A]) + in.Imm
		if in.Index != isa.NoReg {
			addr += int64(r[in.Index])
		}
		if addr < 0 || addr >= int64(len(m.mem)) {
			return false, m.trap(f, "load out of bounds: address %d (memory %d words)", addr, len(m.mem))
		}
		m.stats.MemOps++
		r[in.Dst] = m.mem[addr]
		ev.Addr = addr
	case isa.Store, isa.FStore:
		addr := int64(r[in.A]) + in.Imm
		if in.Index != isa.NoReg {
			addr += int64(r[in.Index])
		}
		if addr < 0 || addr >= int64(len(m.mem)) {
			return false, m.trap(f, "store out of bounds: address %d (memory %d words)", addr, len(m.mem))
		}
		m.stats.MemOps++
		m.mem[addr] = r[in.B]
		ev.Addr = addr

	case isa.Jmp:
		m.stats.Jumps++
		m.emitInstr(ev, in)
		m.emitControl(trace.ControlEvent{
			Kind: trace.Jump, Src: f.blk.ID, Dst: in.Then,
			Callee: isa.NoFunc, Caller: isa.NoFunc,
		})
		f.blk, f.pc = m.prog.Block(in.Then), 0
		return false, nil
	case isa.Br:
		m.stats.Jumps++
		dst := in.Else
		if r[in.A] != 0 {
			dst = in.Then
		}
		m.emitInstr(ev, in)
		m.emitControl(trace.ControlEvent{
			Kind: trace.Jump, Src: f.blk.ID, Dst: dst,
			Callee: isa.NoFunc, Caller: isa.NoFunc,
		})
		f.blk, f.pc = m.prog.Block(dst), 0
		return false, nil
	case isa.Call:
		if len(m.stack) >= m.depthLimit {
			return false, m.trap(f, "call stack overflow: depth %d", len(m.stack))
		}
		m.stats.Calls++
		callee := m.prog.Func(in.Callee)
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = r[a]
		}
		m.emitInstr(ev, in)
		m.emitControl(trace.ControlEvent{
			Kind: trace.Call, Src: f.blk.ID, Dst: callee.Entry,
			Callee: callee.ID, Caller: f.fn.ID,
		})
		m.push(callee, args, in.Dst, in.Then)
		return false, nil
	case isa.Ret:
		var val uint64
		if in.A != isa.NoReg {
			val = r[in.A]
		}
		m.emitInstr(ev, in)
		callee := f.fn
		retDst, retCont := f.retDst, f.retCont
		m.stack = m.stack[:len(m.stack)-1]
		if len(m.stack) == 0 {
			return true, nil // main returned
		}
		caller := m.top()
		if retDst != isa.NoReg {
			caller.regs[retDst] = val
		}
		m.emitControl(trace.ControlEvent{
			Kind: trace.Return, Src: f.blk.ID, Dst: retCont,
			Callee: callee.ID, Caller: caller.fn.ID,
		})
		caller.blk, caller.pc = m.prog.Block(retCont), 0
		return false, nil
	case isa.Halt:
		m.emitInstr(ev, in)
		return true, nil
	default:
		return false, m.trap(f, "unknown opcode %v", in.Op)
	}

	if in.Op.ProducesInt() {
		ev.Value = int64(r[in.Dst])
	}
	if m.Cost != nil {
		m.Cost.account(in.Op, ev.Addr)
	}
	m.emitInstr(ev, in)
	f.pc++
	return false, nil
}

func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
