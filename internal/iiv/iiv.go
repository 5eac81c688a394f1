// Package iiv implements dynamic interprocedural iteration vectors
// (paper Sec. 4): the unification of Kelly's intraprocedural iteration
// vectors with calling-context paths.  A vector alternates context
// stacks (blocks, loop ids, recursive-component ids, possibly nested
// call frames) with canonical induction variables that the profiler
// maintains itself — one dimension per live loop.  Recursive components
// contribute a single dimension whose induction variable keeps
// increasing across calls and returns to the component's headers, so the
// representation depth never grows with recursion depth.
package iiv

import (
	"fmt"
	"strconv"
	"strings"

	"polyprof/internal/cfg"
	"polyprof/internal/cg"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
)

// Elem is one element of a context stack: a basic block, a CFG loop, or
// a recursive component.
type Elem struct {
	Block isa.BlockID // valid when Loop and Comp are nil
	Loop  *cfg.Loop
	Comp  *cg.Component
}

func blockElem(b isa.BlockID) Elem  { return Elem{Block: b} }
func loopElem(l *cfg.Loop) Elem     { return Elem{Block: isa.NoBlock, Loop: l} }
func compElem(c *cg.Component) Elem { return Elem{Block: isa.NoBlock, Comp: c} }

// elemKey identifies an element by kind ('L' loop, 'R' component,
// 'b' block) and ID: the comparable form of Key that indexes schedule
// tree children.
type elemKey struct {
	kind byte
	id   int
}

func (e Elem) key() elemKey {
	switch {
	case e.Loop != nil:
		return elemKey{'L', e.Loop.ID}
	case e.Comp != nil:
		return elemKey{'R', e.Comp.ID}
	default:
		return elemKey{'b', int(e.Block)}
	}
}

// Key returns a compact stable encoding of the element, the form
// vector keys and checkpoints use ("L3", "R1", "b17").  The schedule
// tree indexes elements by their comparable key instead, so no string
// is built on the per-event path.
func (e Elem) Key() string {
	k := e.key()
	return string(k.kind) + strconv.Itoa(k.id)
}

// IsLoop reports whether the element denotes a CFG loop or recursive
// component (i.e. whether the following dimension's induction variable
// belongs to it).
func (e Elem) IsLoop() bool { return e.Loop != nil || e.Comp != nil }

// Dim is one dimension: an induction variable plus a context stack.
type Dim struct {
	IV  int64
	Ctx []Elem
}

// Vector is a dynamic interprocedural iteration vector, updated from
// loop events per Alg. 3.
type Vector struct {
	dims []Dim
}

// NewVector returns the initial vector: a single dimension with an
// empty context.
func NewVector() *Vector {
	return &Vector{dims: []Dim{{}}}
}

// Depth returns the loop depth (number of dimensions beyond the root).
func (v *Vector) Depth() int { return len(v.dims) - 1 }

// Dims exposes the dimensions for rendering.
func (v *Vector) Dims() []Dim { return v.dims }

func (v *Vector) innermost() *Dim { return &v.dims[len(v.dims)-1] }

func (d *Dim) setLast(e Elem) {
	if len(d.Ctx) == 0 {
		d.Ctx = append(d.Ctx, e)
		return
	}
	d.Ctx[len(d.Ctx)-1] = e
}

func (d *Dim) push(e Elem) { d.Ctx = append(d.Ctx, e) }

func (d *Dim) pop() {
	if len(d.Ctx) > 0 {
		d.Ctx = d.Ctx[:len(d.Ctx)-1]
	}
}

// Apply updates the vector with one loop event (Alg. 3, extended with
// the N rule: a local jump updates the innermost context's current
// block).
func (v *Vector) Apply(ev loopevents.Event) {
	in := v.innermost()
	switch ev.Kind {
	case loopevents.LocalJump:
		in.setLast(blockElem(ev.Block))

	case loopevents.CallFn:
		in.push(blockElem(ev.Block))

	case loopevents.ReturnFn:
		in.pop()
		in.setLast(blockElem(ev.Block))

	case loopevents.EnterLoop:
		in.setLast(loopElem(ev.Loop))
		v.dims = append(v.dims, Dim{IV: 0, Ctx: []Elem{blockElem(ev.Block)}})

	case loopevents.EnterRec:
		in.push(compElem(ev.Comp))
		v.dims = append(v.dims, Dim{IV: 0, Ctx: []Elem{blockElem(ev.Block)}})

	case loopevents.ExitLoop:
		v.removeDim()
		v.innermost().setLast(blockElem(ev.Block))

	case loopevents.ExitRec:
		v.removeDim()
		v.innermost().pop()
		v.innermost().setLast(blockElem(ev.Block))

	case loopevents.IterateLoop, loopevents.IterCallRec, loopevents.IterRetRec:
		in.IV++
		in.setLast(blockElem(ev.Block))
	}
}

func (v *Vector) removeDim() {
	if len(v.dims) > 1 {
		v.dims = v.dims[:len(v.dims)-1]
	}
}

// Coords appends the induction variables (outermost first) to buf and
// returns it.  The root dimension carries no induction variable.
func (v *Vector) Coords(buf []int64) []int64 {
	for i := 1; i < len(v.dims); i++ {
		buf = append(buf, v.dims[i].IV)
	}
	return buf
}

// Key returns a stable encoding of the non-numerical part of the vector
// (the "context" the folding stage groups by).  It builds the string on
// every call; the per-event path reads the schedule-tree leaf's CtxKey
// instead (see Tree.Touch).
func (v *Vector) Key() string {
	var sb strings.Builder
	for i := range v.dims {
		if i > 0 {
			sb.WriteByte(',')
		}
		for j, e := range v.dims[i].Ctx {
			if j > 0 {
				sb.WriteByte('/')
			}
			sb.WriteString(e.Key())
		}
	}
	return sb.String()
}

// Namer renders context elements with human-readable names.
type Namer func(e Elem) string

// ProgramNamer builds a Namer using the program's block names.
func ProgramNamer(p *isa.Program) Namer {
	return func(e Elem) string {
		switch {
		case e.Loop != nil:
			return fmt.Sprintf("L%d", e.Loop.ID)
		case e.Comp != nil:
			return fmt.Sprintf("R%d", e.Comp.ID)
		default:
			if e.Block == isa.NoBlock {
				return "?"
			}
			return p.Block(e.Block).Name
		}
	}
}

// Render prints the vector in the paper's textual form, e.g.
// "(M0/L1, 0, A1/L2, 1, B1)".
func (v *Vector) Render(name Namer) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, d := range v.dims {
		if i > 0 {
			fmt.Fprintf(&sb, ", %d, ", d.IV)
		}
		for j, e := range d.Ctx {
			if j > 0 {
				sb.WriteByte('/')
			}
			sb.WriteString(name(e))
		}
	}
	sb.WriteByte(')')
	return sb.String()
}
