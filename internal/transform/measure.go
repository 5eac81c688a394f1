package transform

import (
	"fmt"

	"polyprof/internal/isa"
	"polyprof/internal/vm"
)

// measure executes a program (no tracing hooks) under the cycle/cache
// model and captures its final memory image for the oracle.
func measure(prog *isa.Program, opts Options) (*Measurement, error) {
	cm := vm.NewCycleModel(opts.Cache)
	m := vm.New(prog)
	m.Cost = cm
	m.Budget = opts.Budget
	if err := m.Run(); err != nil {
		return nil, err
	}
	mem := m.Mem()
	out := &Measurement{
		Cycles:      cm.Cycles(),
		CacheHits:   cm.Cache.Hits(),
		CacheMisses: cm.Cache.Misses(),
		mem:         make([]uint64, len(mem)),
	}
	copy(out.mem, mem)
	return out, nil
}

// OracleError is the output-equality oracle's verdict against one
// variant: its final memory image differs from the baseline's.  That
// is a correctness bug in the legality check or the rewriter, so it
// fails the run and the transformation is never reported as
// applied-and-verified.
type OracleError struct {
	Program, Nest, Variant string
	Detail                 string // how the memory images differ
}

func (e *OracleError) Error() string {
	return fmt.Sprintf("transform: output-equality oracle failed for %s %s on %s: %s",
		e.Variant, e.Nest, e.Program, e.Detail)
}

// verifyOutputs is the output-equality oracle: the transformed program
// must leave a bit-identical final memory image.
func verifyOutputs(program, nest, kind string, base, got *Measurement) error {
	fail := func(detail string) error {
		return &OracleError{Program: program, Nest: nest, Variant: kind, Detail: detail}
	}
	if len(base.mem) != len(got.mem) {
		return fail(fmt.Sprintf("memory size changed: %d words vs %d", len(base.mem), len(got.mem)))
	}
	diff := 0
	first := -1
	for i := range base.mem {
		if base.mem[i] != got.mem[i] {
			if first < 0 {
				first = i
			}
			diff++
		}
	}
	if diff == 0 {
		return nil
	}
	return fail(fmt.Sprintf("%d memory words differ (first at word %d: %#x vs %#x)",
		diff, first, base.mem[first], got.mem[first]))
}
