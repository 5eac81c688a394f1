package polyprof_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"polyprof"
	"polyprof/internal/fold"
)

// streamReportJSON profiles a workload in streaming mode (epochs of
// epochEvents dynamic instructions) and renders the final report JSON.
// It returns the report bytes and the number of epoch boundaries that
// fired.
func streamReportJSON(t *testing.T, name string, shards int, epochEvents uint64) ([]byte, int) {
	t.Helper()
	prog, err := polyprof.Workload(name)
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	rep, err := polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{
		ParallelDDG: shards,
		EpochEvents: epochEvents,
		OnEpoch: func(ep *polyprof.Epoch) error {
			epochs++
			if prov, err := ep.Provisional(); err != nil || prov == nil {
				t.Errorf("%s: epoch %d has no provisional profile: %v", name, ep.N, err)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("%s shards=%d epochs=%d: %v", name, shards, epochEvents, err)
	}
	cm := polyprof.DefaultCostModel()
	data, err := rep.JSON(&cm)
	if err != nil {
		t.Fatal(err)
	}
	return data, epochs
}

// TestStreamingEquivalence: a streaming run's FINAL report is
// byte-for-byte identical to the buffered one — with the sequential
// builder and with the sharded parallel engine.  Provisional folding
// at every boundary must not perturb the live state (the clone carries
// no budget and a detached registry).
//
// The default run covers the fast workload subset; the dedicated CI
// leg sets POLYPROF_STREAM_EXHAUSTIVE=1 to cover every bundled
// workload (the full-length case studies profile for minutes each,
// which would blow the default suite's timeout).
func TestStreamingEquivalence(t *testing.T) {
	defer fold.SetOwnershipChecks(fold.SetOwnershipChecks(true))
	var names []string
	switch {
	case testing.Short():
		names = []string{"backprop", "hotspot", "example1"}
	case os.Getenv("POLYPROF_STREAM_EXHAUSTIVE") != "":
		names = polyprof.Workloads()
	default:
		for _, n := range polyprof.Workloads() {
			if fastWorkloads[n] {
				names = append(names, n)
			}
		}
	}
	totalEpochs := 0
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			want := reportJSON(t, name, 0)
			// ~4 epochs per workload: enough boundaries to exercise the
			// provisional fold without dominating the suite's runtime.
			prog, err := polyprof.Workload(name)
			if err != nil {
				t.Fatal(err)
			}
			exec, err := polyprof.ProfileExecution(prog)
			if err != nil {
				t.Fatal(err)
			}
			epochEvents := exec.Stats.Ops/4 + 1
			for _, shards := range []int{0, 8} {
				got, epochs := streamReportJSON(t, name, shards, epochEvents)
				totalEpochs += epochs
				if !bytes.Equal(want, got) {
					t.Errorf("shards=%d: streamed report differs from buffered (%d vs %d bytes)",
						shards, len(got), len(want))
					for i := 0; i < len(want) && i < len(got); i++ {
						if want[i] != got[i] {
							lo, hi := i-120, i+120
							if lo < 0 {
								lo = 0
							}
							if hi > len(want) {
								hi = len(want)
							}
							if hi > len(got) {
								hi = len(got)
							}
							t.Fatalf("first difference at byte %d:\nbuffered: %s\nstreamed: %s", i, want[lo:hi], got[lo:hi])
						}
					}
					t.FailNow()
				}
			}
		})
	}
	if totalEpochs == 0 {
		t.Fatal("no epoch boundary fired across any workload; streaming mode never engaged")
	}
}

// profileJSON profiles a workload under opts and renders the report.
func profileJSON(t *testing.T, name string, opts polyprof.ProfileOptions) []byte {
	t.Helper()
	prog, err := polyprof.Workload(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := polyprof.ProfileWith(context.Background(), prog, opts)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", name, opts.ParallelDDG, err)
	}
	cm := polyprof.DefaultCostModel()
	data, err := rep.JSON(&cm)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStreamingCheckpointResume: interrupting a streaming run and
// resuming from a mid-run checkpoint produces a final report
// byte-identical to an uninterrupted run, and the resumed attempt
// demonstrably starts past event zero (its first epoch ordinal
// continues the checkpoint's).  Checkpoints carry no shard count, so a
// checkpoint taken by either engine resumes on either, buffered and
// under a shadow ceiling (bounded-memory streaming, where the reference
// is the uninterrupted bounded stream).
func TestStreamingCheckpointResume(t *testing.T) {
	const ceiling = 16 << 20
	rows := []struct {
		name         string
		epochEvents  uint64 // 0: an eighth of the run
		limit        uint64 // shadow ceiling, 0 for none
		ckShards     []int  // engines that take the checkpoints
		resumeShards []int  // engines that resume them
		every        bool   // resume from every checkpoint, not the middle one
	}{
		{name: "backprop", ckShards: []int{0, 2}, resumeShards: []int{0, 2, 8}},
		{name: "backprop", limit: ceiling, ckShards: []int{0, 2}, resumeShards: []int{0, 2, 8}},
		// Resume points whose restored shadow records must be released
		// at the next boundary exactly as in the uninterrupted run.
		{name: "heat-3d", epochEvents: 8192, limit: ceiling, ckShards: []int{0}, resumeShards: []int{0}, every: true},
		{name: "doitgen", epochEvents: 16384, limit: ceiling, ckShards: []int{0}, resumeShards: []int{0}, every: true},
		{name: "backprop", epochEvents: 4096, limit: ceiling, ckShards: []int{0}, resumeShards: []int{0}, every: true},
		{name: "backprop", epochEvents: 8192, limit: ceiling, ckShards: []int{0}, resumeShards: []int{0}, every: true},
	}
	for _, r := range rows {
		epochEvents := r.epochEvents
		if epochEvents == 0 {
			// Size epochs off the workload's real op count so the run
			// always crosses several boundaries.
			prog, err := polyprof.Workload(r.name)
			if err != nil {
				t.Fatal(err)
			}
			exec, err := polyprof.ProfileExecution(prog)
			if err != nil {
				t.Fatal(err)
			}
			epochEvents = exec.Stats.Ops / 8
		}
		limits := polyprof.BudgetLimits{MaxShadowBytes: r.limit}
		t.Run(fmt.Sprintf("%s@%d/limit=%d", r.name, epochEvents, r.limit), func(t *testing.T) {
			var want []byte
			if r.limit == 0 {
				want = reportJSON(t, r.name, 0)
			} else {
				want = profileJSON(t, r.name, polyprof.ProfileOptions{Limits: limits, EpochEvents: epochEvents})
			}
			for _, ckShards := range r.ckShards {
				type ckpt struct {
					n    uint64
					data []byte
				}
				var cks []ckpt
				profileJSON(t, r.name, polyprof.ProfileOptions{
					Limits:      limits,
					ParallelDDG: ckShards,
					EpochEvents: epochEvents,
					OnEpoch: func(ep *polyprof.Epoch) error {
						if len(ep.Checkpoint) > 0 {
							cks = append(cks, ckpt{ep.N, append([]byte(nil), ep.Checkpoint...)})
						}
						return nil
					},
				})
				if len(cks) < 2 {
					t.Fatalf("shards=%d: want at least 2 checkpoints, got %d", ckShards, len(cks))
				}
				// The last checkpoint may close the final boundary, after
				// which the resumed run fires no epoch.
				lastN := cks[len(cks)-1].n
				if !r.every {
					cks = cks[len(cks)/2 : len(cks)/2+1]
				}
				for _, c := range cks {
					lastCk := c.n == lastN
					for _, shards := range r.resumeShards {
						ck, err := polyprof.DecodeCheckpoint(c.data)
						if err != nil {
							t.Fatal(err)
						}
						if ck.Epoch != c.n {
							t.Fatalf("checkpoint epoch %d, want %d", ck.Epoch, c.n)
						}
						if ck.Events == 0 {
							t.Fatal("mid-run checkpoint taken at event zero")
						}
						var firstEpoch uint64
						// Fresh program image: resume must not depend on any
						// state the interrupted attempt left behind.
						got := profileJSON(t, r.name, polyprof.ProfileOptions{
							Limits:      limits,
							ParallelDDG: shards,
							EpochEvents: epochEvents,
							Resume:      ck,
							OnEpoch: func(ep *polyprof.Epoch) error {
								if firstEpoch == 0 {
									firstEpoch = ep.N
								}
								return nil
							},
						})
						if (firstEpoch != 0 || !lastCk) && firstEpoch != ck.Epoch+1 {
							t.Errorf("resumed run's first epoch = %d, want %d (continuation of checkpoint)", firstEpoch, ck.Epoch+1)
						}
						if !bytes.Equal(want, got) {
							t.Errorf("checkpoint %d by shards=%d resumed at shards=%d: report differs from uninterrupted run (%d vs %d bytes)",
								c.n, ckShards, shards, len(got), len(want))
						}
					}
				}
			}
		})
	}
}

// streamChurnProgram builds the bounded-memory stress workload: iters
// sweeps over a region of phases*perPhase words, each sweep touching
// one phase slice (read-modify-write per element) and moving on.  A
// slice therefore goes untouched for phases-1 epochs between visits —
// exactly the access pattern whose shadow records streaming mode folds
// and releases at every boundary.
func streamChurnProgram(iters, phases, perPhase int64) *polyprof.Program {
	pb := polyprof.NewProgram("stream-churn")
	region := pb.Global("region", phases*perPhase)
	f := pb.Func("main", 0)
	base := f.IConst(region.Base)
	one := f.FConst(1.0)
	f.Loop("sweep", f.IConst(0), f.IConst(iters), 1, func(it polyprof.Reg) {
		slice := f.Mul(f.Mod(it, f.IConst(phases)), f.IConst(perPhase))
		f.Loop("elem", f.IConst(0), f.IConst(perPhase), 1, func(j polyprof.Reg) {
			idx := f.Add(slice, j)
			v := f.FLoadIdx(base, idx, 0)
			f.FStoreIdx(base, idx, 0, f.FAdd(v, one))
		})
	})
	f.Halt()
	pb.SetMain(f)
	return pb.MustBuild()
}

// TestStreamingBoundedMemory: a streaming run whose cumulative shadow
// traffic is >= 100x the configured ceiling completes without ever
// tripping the budget — fold-and-release at epoch boundaries keeps the
// live footprint under the limit for arbitrarily long traces, where a
// buffered run would degrade to coarse tracking.
func TestStreamingBoundedMemory(t *testing.T) {
	// 16 phase slices of 128 words: the buffered builder's footprint
	// (dense base tables + one record pair per distinct address) lands
	// well above the ceiling, while streaming only ever keeps the base
	// tables plus a couple of slices' records live.
	iters, phases, perPhase := int64(2400), int64(16), int64(128)
	if testing.Short() {
		iters = 400
	}
	prog := streamChurnProgram(iters, phases, perPhase)
	exec, err := polyprof.ProfileExecution(prog)
	if err != nil {
		t.Fatal(err)
	}
	// One epoch per sweep: a slice's records go stale (and are
	// released) a few epochs after each visit.
	epochEvents := exec.Stats.Ops / uint64(iters)

	// The parallel engine streams through the same partitions: under
	// the same ceiling it must stay undegraded and fold byte for byte
	// what the sequential bounded stream folds.
	const limit = 256 << 10
	var want []byte
	for _, shards := range []int{0, 2} {
		var released uint64
		var epochs int
		rep, err := polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{
			Limits:      polyprof.BudgetLimits{MaxShadowBytes: limit},
			ParallelDDG: shards,
			EpochEvents: epochEvents,
			OnEpoch: func(ep *polyprof.Epoch) error {
				released += ep.ReleasedBytes
				epochs++
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Profile.DDG.Degraded != nil {
			t.Fatalf("shards=%d: streaming run degraded despite fold-and-release: %+v", shards, rep.Profile.DDG.Degraded)
		}
		// The profile's summary is what a caller without a callback
		// reads (the CLI's epoch line).
		if p := rep.Profile; p.Epochs != uint64(epochs) || p.ReleasedBytes != released {
			t.Fatalf("shards=%d: profile summary %d epochs, %d bytes released; callbacks saw %d, %d", shards, p.Epochs, p.ReleasedBytes, epochs, released)
		}
		factor := released / limit
		t.Logf("shards=%d: epochs=%d released=%d bytes (%dx the %d-byte ceiling)", shards, epochs, released, factor, uint64(limit))
		if !testing.Short() && factor < 100 {
			t.Fatalf("shards=%d: cumulative released shadow bytes %d < 100x the %d-byte ceiling; churn workload too small", shards, released, uint64(limit))
		}
		if testing.Short() && released == 0 {
			t.Fatalf("shards=%d: no shadow bytes released; streaming release never engaged", shards)
		}
		cm := polyprof.DefaultCostModel()
		got, err := rep.JSON(&cm)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("shards=%d: bounded stream differs from the sequential one (%d vs %d bytes)", shards, len(got), len(want))
		}
	}

	// The same trace under the same ceiling WITHOUT streaming must
	// degrade — otherwise this test isn't demonstrating anything.
	bufRep, err := polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{
		Limits: polyprof.BudgetLimits{MaxShadowBytes: limit},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bufRep.Profile.DDG.Degraded == nil {
		t.Fatal("buffered run under the same ceiling did not degrade; ceiling too generous for the churn workload")
	}
}

// TestOptimizeWithStreams: OptimizeWith honors the streaming options
// (epoch callbacks fire), and its profile and optimize reports are
// byte-identical to a buffered OptimizeWith.
func TestOptimizeWithStreams(t *testing.T) {
	prog, err := polyprof.Workload("backprop")
	if err != nil {
		t.Fatal(err)
	}
	render := func(popts polyprof.ProfileOptions) (rep, opt []byte) {
		t.Helper()
		r, o, err := polyprof.OptimizeWith(context.Background(), prog, popts, 0)
		if err != nil {
			t.Fatal(err)
		}
		cm := polyprof.DefaultCostModel()
		if rep, err = r.JSON(&cm); err != nil {
			t.Fatal(err)
		}
		if opt, err = json.Marshal(o); err != nil {
			t.Fatal(err)
		}
		return rep, opt
	}
	wantRep, wantOpt := render(polyprof.ProfileOptions{})
	epochs := 0
	gotRep, gotOpt := render(polyprof.ProfileOptions{
		EpochEvents: 20000,
		OnEpoch:     func(*polyprof.Epoch) error { epochs++; return nil },
	})
	if epochs == 0 {
		t.Error("OptimizeWith ran no epoch callback: streaming options dropped")
	}
	if !bytes.Equal(gotRep, wantRep) {
		t.Error("streamed OptimizeWith profile report differs from the buffered one")
	}
	if !bytes.Equal(gotOpt, wantOpt) {
		t.Error("streamed OptimizeWith optimize report differs from the buffered one")
	}
}
