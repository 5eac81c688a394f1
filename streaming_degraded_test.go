package polyprof_test

import (
	"context"
	"fmt"
	"os"
	"testing"

	"polyprof"
)

// bundleKeys names every dependence bundle of a report by its source
// and destination instruction (context and code reference) and kind.
func bundleKeys(rep *polyprof.Report) map[string]bool {
	keys := map[string]bool{}
	for _, d := range rep.Profile.DDG.Deps {
		keys[fmt.Sprintf("%s|%v|%d -> %s|%v|%d : %v",
			d.Src.Ctx, d.Src.Ref.Block, d.Src.Ref.Index,
			d.Dst.Ctx, d.Dst.Ref.Block, d.Dst.Ref.Index, d.Kind)] = true
	}
	return keys
}

// staleThenTripProgram builds a run whose shadow records are first
// released by streaming and then refused by the budget: it stores
// every A[i], spins a register-only loop for many epochs (A's records
// go stale and are released), stores every B[j] (enough records to
// exhaust a ceiling a little above the base tables), then loads A[i]
// and stores B[i].  The use loop's counterparts are the released
// init and fill stores.
func staleThenTripProgram() *polyprof.Program {
	pb := polyprof.NewProgram("stale-then-trip")
	a := pb.Global("A", 256)
	bg := pb.Global("B", 8192)
	f := pb.Func("main", 0)
	aBase, bBase := f.IConst(a.Base), f.IConst(bg.Base)
	one := f.FConst(1.0)
	f.Loop("init", f.IConst(0), f.IConst(a.Size), 1, func(i polyprof.Reg) {
		f.FStoreIdx(aBase, i, 0, one)
	})
	acc := f.IConst(0)
	f.Loop("spin", f.IConst(0), f.IConst(20000), 1, func(i polyprof.Reg) {
		f.AddTo(acc, acc, i)
	})
	f.Loop("fill", f.IConst(0), f.IConst(bg.Size), 1, func(j polyprof.Reg) {
		f.FStoreIdx(bBase, j, 0, one)
	})
	f.Loop("use", f.IConst(0), f.IConst(a.Size), 1, func(i polyprof.Reg) {
		f.FStoreIdx(bBase, i, 0, f.FLoadIdx(aBase, i, 0))
	})
	f.Halt()
	pb.SetMain(f)
	return pb.MustBuild()
}

// TestStreamingDegradedSuperset: a run that streams under a shadow
// ceiling and trips it keeps every dependence bundle of the unlimited
// run, on both engines.  Records missing for any reason (released at
// an epoch boundary or refused by the budget) must yield their
// dependences from the range summaries.
//
// The default run covers the fast workload subset and the constructed
// stale-then-trip program; POLYPROF_STREAM_EXHAUSTIVE=1 covers every
// bundled program (each at most 3M ops) over epochs {512, 4096} and
// ceilings of the base tables plus {1, 4, 16, 64} KiB.
func TestStreamingDegradedSuperset(t *testing.T) {
	type row struct {
		name   string
		prog   *polyprof.Program
		epochs []uint64
		limits []uint64 // shadow ceilings in bytes
	}
	var rows []row
	exhaustive := os.Getenv("POLYPROF_STREAM_EXHAUSTIVE") != ""
	for _, name := range polyprof.Workloads() {
		if !exhaustive && !fastWorkloads[name] {
			continue
		}
		prog, err := polyprof.Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		// The builder's fixed record tables: two 32-byte records per
		// memory word.
		base := uint64(prog.MemWords) * 64
		r := row{name: name, prog: prog, epochs: []uint64{4096}, limits: []uint64{base + 4<<10}}
		if exhaustive {
			r.epochs = []uint64{512, 4096}
			r.limits = []uint64{base + 1<<10, base + 4<<10, base + 16<<10, base + 64<<10}
		}
		rows = append(rows, r)
	}
	rows = append(rows, row{name: "stale-then-trip", prog: staleThenTripProgram(), epochs: []uint64{4096}, limits: []uint64{560 << 10}})

	degraded := 0
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			exact, err := polyprof.ProfileWith(context.Background(), r.prog, polyprof.ProfileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := bundleKeys(exact)
			for _, epochs := range r.epochs {
				for _, limit := range r.limits {
					for _, shards := range []int{0, 2} {
						rep, err := polyprof.ProfileWith(context.Background(), r.prog, polyprof.ProfileOptions{
							Limits:      polyprof.BudgetLimits{MaxShadowBytes: limit},
							ParallelDDG: shards,
							EpochEvents: epochs,
						})
						if err != nil {
							t.Fatalf("epochs=%d limit=%d shards=%d: %v", epochs, limit, shards, err)
						}
						if rep.Profile.DDG.Degraded != nil {
							degraded++
						} else if r.name == "stale-then-trip" {
							t.Errorf("shards=%d: the constructed run did not degrade", shards)
						}
						got := bundleKeys(rep)
						missing := 0
						for k := range want {
							if !got[k] {
								missing++
								if missing <= 3 {
									t.Errorf("epochs=%d limit=%d shards=%d: lost %s", epochs, limit, shards, k)
								}
							}
						}
						if missing > 0 {
							t.Errorf("epochs=%d limit=%d shards=%d: %d of %d bundles lost", epochs, limit, shards, missing, len(want))
						}
					}
				}
			}
		})
	}
	if degraded == 0 {
		t.Fatal("no run degraded: the ceilings are too generous to test anything")
	}
}
