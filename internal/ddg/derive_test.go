package ddg_test

import (
	"fmt"
	"os"
	"testing"

	"polyprof/internal/core"
	"polyprof/internal/ddg"
	"polyprof/internal/fold"
	"polyprof/internal/obs"
	"polyprof/internal/workloads"
)

// crossCheckWorkloads is the fast subset by default and every bundled
// workload under POLYPROF_STREAM_EXHAUSTIVE.
func crossCheckWorkloads() []string {
	switch {
	case os.Getenv("POLYPROF_STREAM_EXHAUSTIVE") != "":
		return workloads.Names()
	case testing.Short():
		return []string{"example1", "example2", "backprop"}
	}
	return []string{"example1", "example2", "backprop", "bfs", "hotspot", "lud"}
}

// TestDerivedCrossCheck: every derived bundle (in-block register flow)
// equals the fold of its points — same pieces, same count — at every
// FinishChecked: buffered on both engines, and streamed with a
// provisional clone at every epoch boundary, whose grid falls inside
// blocks, then resumed from a middle checkpoint.  The cross-check hook
// folds the points alongside and fails FinishChecked on a mismatch.
func TestDerivedCrossCheck(t *testing.T) {
	defer ddg.SetCrossCheck(ddg.SetCrossCheck(true))
	defer fold.SetOwnershipChecks(fold.SetOwnershipChecks(true))
	var derived uint64
	for _, name := range crossCheckWorkloads() {
		t.Run(name, func(t *testing.T) {
			prog := workloads.ByName(name).Build()
			run := func(t *testing.T, opts core.Options) *core.Profile {
				t.Helper()
				p, err := core.Run(prog, opts)
				if err != nil {
					t.Fatalf("shards=%d epochs=%d resumed=%v: %v", opts.ParallelDDG, opts.EpochEvents, opts.Resume != nil, err)
				}
				return p
			}
			var ops uint64
			for _, shards := range []int{0, 2} {
				reg := obs.NewRegistry()
				reg.SetEnabled(true)
				opts := core.DefaultRunOptions()
				opts.ParallelDDG, opts.Obs = shards, reg.Scope()
				ops = run(t, opts).Stats.Ops
				if shards == 0 {
					derived += reg.Counter("ddg.deps.derived").Value()
				}
			}
			// 4096-event epochs, and a finer odd grid where that gives
			// fewer than eight boundaries.
			var grids []uint64
			if ops > 2*4096 {
				grids = append(grids, 4096)
			}
			if ops < 8*4096 {
				grids = append(grids, ops/8|1)
			}
			for _, grid := range grids {
				for _, shards := range []int{0, 2} {
					t.Run(fmt.Sprintf("epochs=%d/shards=%d", grid, shards), func(t *testing.T) {
						var cks [][]byte
						opts := core.DefaultRunOptions()
						opts.ParallelDDG, opts.EpochEvents = shards, grid
						opts.OnEpoch = func(ep *core.Epoch) error {
							if _, err := ep.Provisional(); err != nil {
								return err
							}
							if ep.Checkpoint != nil {
								cks = append(cks, ep.Checkpoint)
							}
							return nil
						}
						run(t, opts)
						if len(cks) == 0 {
							t.Fatal("no checkpoint taken")
						}
						ck, err := core.DecodeCheckpoint(cks[len(cks)/2])
						if err != nil {
							t.Fatal(err)
						}
						opts.Resume = ck
						run(t, opts)
					})
				}
			}
		})
	}
	if derived == 0 {
		t.Fatal("no bundle was derived; the cross-check compared nothing")
	}
}
