package iiv

import (
	"fmt"
	"sort"
	"strings"
)

// TreeNode is one node of the dynamic schedule tree: the structure that
// unifies the polyhedral schedule tree with the calling-context tree
// (paper Fig. 5).  Interior nodes are context elements (blocks the
// execution passed through, loops, recursive components); leaves carry
// the dynamic instruction counts of the statements executed under that
// exact context.
type TreeNode struct {
	Elem   Elem // undefined for the root
	Parent *TreeNode

	Children []*TreeNode
	index    map[elemKey]*TreeNode

	// StaticIdx is the node's Kelly-mapping static index: the position
	// of the node among its siblings in first-execution order, which for
	// our generated code coincides with the topological order of the
	// reduced DAG the paper numbers.
	StaticIdx int

	// SelfOps counts dynamic instructions whose context path ends here.
	SelfOps uint64
	// TotalOps is SelfOps plus all descendants' (set by Finalize).
	TotalOps uint64
	// Iters counts iterations for loop/component nodes.
	Iters uint64

	// CtxKey is the vector context key for leaf contexts touched at this
	// node ("" if the node was never an innermost context).  Set once,
	// by the first Touch that ends here: a node's element path and the
	// key of every vector that reaches it determine each other (see
	// Touch), so the key never changes.
	CtxKey string
}

// IsRoot reports whether the node is the tree root.
func (n *TreeNode) IsRoot() bool { return n.Parent == nil }

func (n *TreeNode) child(e Elem) *TreeNode {
	k := e.key()
	if c, ok := n.index[k]; ok {
		return c
	}
	c := &TreeNode{Elem: e, Parent: n, StaticIdx: len(n.Children)}
	if n.index == nil {
		n.index = map[elemKey]*TreeNode{}
	}
	n.index[k] = c
	n.Children = append(n.Children, c)
	return c
}

// Path renders the root-to-node context path.
func (n *TreeNode) Path(name Namer) string {
	if n.IsRoot() {
		return "<root>"
	}
	var parts []string
	for cur := n; cur != nil && !cur.IsRoot(); cur = cur.Parent {
		parts = append(parts, name(cur.Elem))
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// Tree is the dynamic schedule tree of one execution.
type Tree struct {
	Root *TreeNode

	cur    *TreeNode // leaf for the current context
	byCtx  map[string]*TreeNode
	frozen bool
	// path holds the nodes of the last context path walked, outermost
	// first: path[0] is a child of Root and path[k] a child of
	// path[k-1].  A walk that covers only a prefix of it (see
	// NoteIteration) leaves the deeper tail in place, still a chain.
	path []*TreeNode
}

// NewTree creates an empty dynamic schedule tree.
func NewTree() *Tree {
	return &Tree{
		Root:  &TreeNode{},
		byCtx: map[string]*TreeNode{},
	}
}

// walk returns the node at the end of the context elements of the
// vector's first nd dimensions.  Consecutive control events change
// only the tail of the context, so it steps from the last path: while
// the vector's elements equal the path's, the path's nodes are reused
// with no lookup, and child runs only for the suffix that changed.
// Elem equality implies key equality, so a reused node is the one
// child would return; equal keys behind unequal Elems merely take the
// lookup.
func (t *Tree) walk(v *Vector, nd int) *TreeNode {
	n := t.Root
	k := 0
	for _, d := range v.dims[:nd] {
		for _, e := range d.Ctx {
			if k < len(t.path) && t.path[k].Elem == e {
				n = t.path[k]
			} else {
				n = n.child(e)
				t.path = append(t.path[:k], n)
			}
			k++
		}
	}
	return n
}

// Touch positions the tree's current leaf at the context described by
// the vector, creating nodes as needed, and returns it.  Call it after
// every control event; CountOp then attributes instructions to the
// right leaf, and the leaf's CtxKey is the vector's Key.
//
// The leaf is found by the vector's context elements alone, dimension
// separators dropped; that loses nothing, because every dimension but
// the innermost ends in the one loop or component element that opened
// the next dimension, and the innermost holds blocks only.  So the key
// is computed once per leaf, not per event.
func (t *Tree) Touch(v *Vector) *TreeNode {
	n := t.walk(v, len(v.dims))
	if n.CtxKey == "" {
		key := v.Key()
		n.CtxKey = key
		t.byCtx[key] = n
	}
	t.cur = n
	return n
}

// NoteIteration increments the iteration counter of the innermost live
// loop node (the loop element closing the second-innermost dimension).
func (t *Tree) NoteIteration(v *Vector) {
	if len(v.dims) < 2 {
		return
	}
	t.walk(v, len(v.dims)-1).Iters++
}

// CountOp attributes one executed instruction to the current context.
func (t *Tree) CountOp() {
	if t.cur != nil {
		t.cur.SelfOps++
	}
}

// CountOps attributes n executed instructions to the current context
// (the batched-emission equivalent of n CountOp calls).
func (t *Tree) CountOps(n int) {
	if t.cur != nil {
		t.cur.SelfOps += uint64(n)
	}
}

// NodeByCtx returns the leaf node for a context key, or nil.
func (t *Tree) NodeByCtx(key string) *TreeNode { return t.byCtx[key] }

// Finalize computes aggregated operation counts bottom-up.  It is
// idempotent.
func (t *Tree) Finalize() {
	var agg func(n *TreeNode) uint64
	agg = func(n *TreeNode) uint64 {
		total := n.SelfOps
		for _, c := range n.Children {
			total += agg(c)
		}
		n.TotalOps = total
		return total
	}
	agg(t.Root)
	t.frozen = true
}

// TotalOps returns the whole execution's dynamic instruction count
// (valid after Finalize).
func (t *Tree) TotalOps() uint64 { return t.Root.TotalOps }

// Walk visits every node in depth-first order (children in static
// order).
func (t *Tree) Walk(f func(n *TreeNode, depth int)) {
	var rec func(n *TreeNode, d int)
	rec = func(n *TreeNode, d int) {
		f(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	rec(t.Root, 0)
}

// Render prints an indented view of the tree, heaviest nodes first at
// each level, for diagnostics and the textual feedback report.
func (t *Tree) Render(name Namer, minOps uint64) string {
	var sb strings.Builder
	var rec func(n *TreeNode, depth int)
	rec = func(n *TreeNode, depth int) {
		if !n.IsRoot() {
			if n.TotalOps < minOps {
				return
			}
			fmt.Fprintf(&sb, "%s%s(%d)", strings.Repeat("  ", depth-1), name(n.Elem), n.StaticIdx)
			if n.Elem.IsLoop() {
				fmt.Fprintf(&sb, " iters=%d", n.Iters)
			}
			fmt.Fprintf(&sb, " ops=%d\n", n.TotalOps)
		}
		kids := append([]*TreeNode(nil), n.Children...)
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].TotalOps > kids[j].TotalOps })
		for _, c := range kids {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return sb.String()
}
