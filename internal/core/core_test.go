package core_test

import (
	"strings"
	"testing"

	"polyprof/internal/core"
	"polyprof/internal/faultinject"
	"polyprof/internal/trace"
	"polyprof/internal/workloads"

	"polyprof/internal/isa"
)

// TestPipelineInvariants: the two passes and the DDG agree on the
// dynamic operation counts, and profiling is deterministic.
func TestPipelineInvariants(t *testing.T) {
	for _, name := range []string{"example1", "example2", "backprop", "bfs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := workloads.ByName(name).Build()
			p1, err := core.Run(prog, core.DefaultRunOptions())
			if err != nil {
				t.Fatal(err)
			}
			// Schedule tree and DDG both account every instruction.
			if p1.Tree.TotalOps() != p1.Stats.Ops {
				t.Errorf("tree ops %d != vm ops %d", p1.Tree.TotalOps(), p1.Stats.Ops)
			}
			if p1.DDG.TotalOps != p1.Stats.Ops {
				t.Errorf("ddg ops %d != vm ops %d", p1.DDG.TotalOps, p1.Stats.Ops)
			}
			if p1.DDG.MemOps != p1.Stats.MemOps {
				t.Errorf("ddg mem ops %d != vm mem ops %d", p1.DDG.MemOps, p1.Stats.MemOps)
			}
			// Statement counts sum to block executions <= ops.
			var stmtInstances uint64
			for _, s := range p1.DDG.Stmts {
				stmtInstances += s.Count
			}
			if stmtInstances == 0 || stmtInstances > p1.Stats.Ops {
				t.Errorf("statement instances %d out of range (ops %d)", stmtInstances, p1.Stats.Ops)
			}
			// Determinism: a second profile folds identically.
			p2, err := core.Run(prog, core.DefaultRunOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(p1.DDG.Stmts) != len(p2.DDG.Stmts) || len(p1.DDG.Deps) != len(p2.DDG.Deps) {
				t.Errorf("profiles differ across runs: %d/%d stmts, %d/%d deps",
					len(p1.DDG.Stmts), len(p2.DDG.Stmts), len(p1.DDG.Deps), len(p2.DDG.Deps))
			}
		})
	}
}

// TestInstrCountsConsistent: per-instruction counts sum to the
// statement's count times its instruction count.
func TestInstrCountsConsistent(t *testing.T) {
	prog := workloads.Example1()
	p, err := core.Run(prog, core.DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	perStmt := map[int]uint64{}
	for _, in := range p.DDG.Instrs {
		perStmt[in.Stmt.ID] += in.Count
	}
	for _, s := range p.DDG.Stmts {
		blockLen := uint64(len(prog.Block(s.Block).Code))
		if perStmt[s.ID] != s.Count*blockLen {
			t.Errorf("stmt %d: instr events %d != count %d * block len %d",
				s.ID, perStmt[s.ID], s.Count, blockLen)
		}
	}
}

// TestPass2SinkReceivesEverything: a counting sink sees exactly the
// VM's operations with coords of the right arity.
func TestPass2SinkReceivesEverything(t *testing.T) {
	prog := workloads.Example1()
	st, err := core.AnalyzeStructure(prog, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	_, stats, err := core.RunPass2(prog, st, sink, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if sink.instrs != stats.Ops {
		t.Errorf("sink saw %d instrs, vm executed %d", sink.instrs, stats.Ops)
	}
	if sink.maxDepth != 2 {
		t.Errorf("max coord depth %d, want 2", sink.maxDepth)
	}
}

type countingSink struct {
	instrs   uint64
	maxDepth int
}

func (c *countingSink) OnControl(trace.ControlEvent) {}

func (c *countingSink) OnInstr(ctx string, coords []int64, ev trace.InstrEvent, in *isa.Instr) {
	c.instrs++
	if len(coords) > c.maxDepth {
		c.maxDepth = len(coords)
	}
}

// TestParallelEngineFaultStopsCheckpoints: once the parallel engine has
// failed — a dispatch fault, or a shard panic it contains — its workers
// skip every later batch, so no epoch boundary after the failure may
// hand out a checkpoint (a retry would resume from state missing those
// batches).  The run itself must fail.
func TestParallelEngineFaultStopsCheckpoints(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	prog := workloads.ByName("backprop").Build()
	pre, err := core.Run(prog, core.DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"parddg.batch.dispatch=error:chaos:3", "parddg.shard.insert=panic:chaos:2000"} {
		t.Run(spec, func(t *testing.T) {
			if err := faultinject.ArmString(spec); err != nil {
				t.Fatal(err)
			}
			defer faultinject.DisarmAll()
			name, _, _ := strings.Cut(spec, "=")
			point := faultinject.Point(name)
			opts := core.DefaultRunOptions()
			opts.ParallelDDG = 2
			opts.EpochEvents = pre.Stats.Ops / 16
			var before int
			opts.OnEpoch = func(ep *core.Epoch) error {
				if !point.Armed() && len(ep.Checkpoint) > 0 {
					t.Errorf("epoch %d: checkpoint emitted after the engine failed", ep.N)
				}
				if point.Armed() {
					before++
				}
				return nil
			}
			if _, err := core.Run(prog, opts); err == nil {
				t.Fatal("run succeeded after an engine fault, want error")
			}
			if point.Armed() {
				t.Fatal("fault never fired")
			}
			if before == 0 {
				t.Fatal("fault fired before the first epoch boundary; move it later")
			}
		})
	}
}
