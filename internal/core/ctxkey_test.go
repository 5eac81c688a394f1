package core

import (
	"errors"
	"testing"

	"polyprof/internal/isa"
	"polyprof/internal/trace"
	"polyprof/internal/vm"
	"polyprof/internal/workloads"
)

// keySink checks that the context key pass 2 hands its sink, read from
// the schedule-tree leaf, is the vector's key on every instruction
// event.
type keySink struct {
	t      *testing.T
	p      *Pass2
	events uint64
}

func (s *keySink) OnControl(trace.ControlEvent) {}

func (s *keySink) OnInstr(ctxKey string, _ []int64, _ trace.InstrEvent, _ *isa.Instr) {
	s.check(ctxKey, 1)
}

func (s *keySink) check(ctxKey string, n int) {
	if want := s.p.Vector.Key(); ctxKey != want {
		s.t.Fatalf("after %d instruction events: ctxKey %q, vector key %q", s.events, ctxKey, want)
	}
	s.events += uint64(n)
}

// batchKeySink drives the same check through pass2Batcher.
type batchKeySink struct{ *keySink }

func (s batchKeySink) OnInstrBatch(ctxKey string, _ []int64, evs []trace.InstrEvent, _ []*isa.Instr) {
	s.check(ctxKey, len(evs))
}

var errStop = errors.New("stop after the first checkpoint")

// TestPass2ContextKeyIsVectorKey runs every bundled workload's pass 2
// per event, in batches, and resumed from a mid-run checkpoint.
func TestPass2ContextKeyIsVectorKey(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := workloads.ByName(name).Build()
			st, err := AnalyzeStructure(prog, Env{})
			if err != nil {
				t.Fatal(err)
			}
			var ck *Checkpoint
			opts := DefaultRunOptions()
			opts.EpochEvents = st.Stats.Ops/3 + 1
			opts.OnEpoch = func(ep *Epoch) error {
				if ck, err = DecodeCheckpoint(ep.Checkpoint); err != nil {
					t.Fatal(err)
				}
				return errStop
			}
			if _, err := Run(prog, opts); !errors.Is(err, errStop) {
				t.Fatalf("streaming run: %v, want the first checkpoint", err)
			}
			for _, mode := range []string{"events", "batched", "resumed"} {
				ks := &keySink{t: t}
				var sink InstrSink = ks
				if mode == "batched" {
					sink = batchKeySink{ks}
				}
				p := NewPass2(prog, st, sink)
				ks.p = p
				if _, ok := p.hook().(pass2Batcher); ok != (mode == "batched") {
					t.Fatalf("%s: batching hook = %v", mode, ok)
				}
				m := vm.New(prog, p.hook())
				want := st.Stats.Ops
				if mode == "resumed" {
					if err := (&epochConfig{resume: ck}).arm(p, m, prog, st); err != nil {
						t.Fatal(err)
					}
					want -= ck.Events
				}
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if ks.events != want {
					t.Fatalf("%s: sink saw %d instruction events, want %d", mode, ks.events, want)
				}
			}
		})
	}
}
