package iiv

import (
	"fmt"
	"strconv"

	"polyprof/internal/cfg"
	"polyprof/internal/cg"
	"polyprof/internal/isa"
)

// Epoch-checkpoint serialization.  Vectors and schedule trees reference
// CFG loops and recursive components by pointer; checkpoints store the
// element keys ("L3", "R1", "b17") and an ElemResolver re-binds them
// against the structure a resumed run re-derives — pass 1 is
// deterministic, so loop and component IDs are stable across attempts.

// ElemResolver maps element keys back to live structure pointers.
type ElemResolver struct {
	loops map[int]*cfg.Loop
	comps map[int]*cg.Component
}

// NewElemResolver indexes a run's loop forest and component set.
func NewElemResolver(forest *cfg.Forest, comps *cg.ComponentSet) *ElemResolver {
	r := &ElemResolver{loops: map[int]*cfg.Loop{}, comps: map[int]*cg.Component{}}
	if forest != nil {
		for _, l := range forest.Loops {
			r.loops[l.ID] = l
		}
	}
	if comps != nil {
		for _, c := range comps.Components {
			r.comps[c.ID] = c
		}
	}
	return r
}

// Resolve turns an element key back into an Elem.
func (r *ElemResolver) Resolve(key string) (Elem, error) {
	if key == "" {
		return Elem{}, fmt.Errorf("iiv: empty element key")
	}
	id, err := strconv.Atoi(key[1:])
	if err != nil {
		return Elem{}, fmt.Errorf("iiv: bad element key %q", key)
	}
	switch key[0] {
	case 'L':
		l := r.loops[id]
		if l == nil {
			return Elem{}, fmt.Errorf("iiv: unknown loop L%d in checkpoint", id)
		}
		return loopElem(l), nil
	case 'R':
		c := r.comps[id]
		if c == nil {
			return Elem{}, fmt.Errorf("iiv: unknown component R%d in checkpoint", id)
		}
		return compElem(c), nil
	case 'b':
		return blockElem(isa.BlockID(id)), nil
	}
	return Elem{}, fmt.Errorf("iiv: bad element key %q", key)
}

// DimState serializes one vector dimension.
type DimState struct {
	IV  int64    `json:"iv"`
	Ctx []string `json:"ctx"`
}

// VectorState is the serializable form of a Vector.
type VectorState struct {
	Dims []DimState `json:"dims"`
}

// State captures the vector for checkpointing.
func (v *Vector) State() VectorState {
	var s VectorState
	for _, d := range v.dims {
		ds := DimState{IV: d.IV}
		for _, e := range d.Ctx {
			ds.Ctx = append(ds.Ctx, e.Key())
		}
		s.Dims = append(s.Dims, ds)
	}
	return s
}

// RestoreVector rebuilds a vector from its checkpointed state.
func RestoreVector(s VectorState, r *ElemResolver) (*Vector, error) {
	v := &Vector{}
	for _, ds := range s.Dims {
		d := Dim{IV: ds.IV}
		for _, k := range ds.Ctx {
			e, err := r.Resolve(k)
			if err != nil {
				return nil, err
			}
			d.Ctx = append(d.Ctx, e)
		}
		v.dims = append(v.dims, d)
	}
	if len(v.dims) == 0 {
		v.dims = []Dim{{}}
	}
	return v, nil
}

// TreeNodeState serializes one schedule-tree node; children recurse in
// static (first-execution) order, so StaticIdx is implied by position.
type TreeNodeState struct {
	Elem     string          `json:"e,omitempty"` // "" only for the root
	SelfOps  uint64          `json:"self,omitempty"`
	Iters    uint64          `json:"iters,omitempty"`
	CtxKey   string          `json:"ctx,omitempty"`
	Children []TreeNodeState `json:"ch,omitempty"`
}

// TreeState is the serializable form of a Tree.
type TreeState struct {
	Root   TreeNodeState `json:"root"`
	CurCtx string        `json:"cur,omitempty"`
}

func nodeState(n *TreeNode) TreeNodeState {
	s := TreeNodeState{SelfOps: n.SelfOps, Iters: n.Iters, CtxKey: n.CtxKey}
	if !n.IsRoot() {
		s.Elem = n.Elem.Key()
	}
	for _, c := range n.Children {
		s.Children = append(s.Children, nodeState(c))
	}
	return s
}

// State captures the tree for checkpointing (TotalOps is derived by
// Finalize and not stored).
func (t *Tree) State() TreeState {
	s := TreeState{Root: nodeState(t.Root)}
	if t.cur != nil {
		s.CurCtx = t.cur.CtxKey
	}
	return s
}

// RestoreTree rebuilds a schedule tree from its checkpointed state.
func RestoreTree(s TreeState, r *ElemResolver) (*Tree, error) {
	t := NewTree()
	var build func(dst *TreeNode, src TreeNodeState) error
	build = func(dst *TreeNode, src TreeNodeState) error {
		dst.SelfOps = src.SelfOps
		dst.Iters = src.Iters
		dst.CtxKey = src.CtxKey
		if src.CtxKey != "" {
			t.byCtx[src.CtxKey] = dst
		}
		for _, cs := range src.Children {
			e, err := r.Resolve(cs.Elem)
			if err != nil {
				return err
			}
			child := dst.child(e)
			if err := build(child, cs); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(t.Root, s.Root); err != nil {
		return nil, err
	}
	if s.CurCtx != "" {
		t.cur = t.byCtx[s.CurCtx]
		if t.cur == nil {
			return nil, fmt.Errorf("iiv: checkpoint current context %q not in tree", s.CurCtx)
		}
	}
	return t, nil
}

// Clone deep-copies the tree so a provisional report can Finalize and
// render the copy while the live tree keeps counting.
func (t *Tree) Clone() *Tree {
	c := NewTree()
	var rec func(dst, src *TreeNode)
	rec = func(dst, src *TreeNode) {
		dst.SelfOps = src.SelfOps
		dst.TotalOps = src.TotalOps
		dst.Iters = src.Iters
		dst.CtxKey = src.CtxKey
		if src.CtxKey != "" {
			c.byCtx[src.CtxKey] = dst
		}
		if src == t.cur {
			c.cur = dst
		}
		for _, ch := range src.Children {
			rec(dst.child(ch.Elem), ch)
		}
	}
	rec(c.Root, t.Root)
	return c
}
