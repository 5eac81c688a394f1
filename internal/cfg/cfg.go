// Package cfg reconstructs per-function control-flow graphs from the
// dynamic event stream and builds their loop-nesting forests following
// the recursive SCC characterization of Ramalingam that the paper uses
// (Sec. 3.1): each SCC containing a cycle is an outermost loop, one
// entry node becomes its header, removing the back-edges that target the
// header uncovers the next nesting level.
//
// Only executed code is represented: blocks or edges never reached by
// the profiled run do not exist here, which is precisely the property
// the paper exploits to keep analysis proportional to the executed part
// of large programs.
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"polyprof/internal/isa"
	"polyprof/internal/trace"
)

// Graph is the dynamic control-flow graph of a whole program, kept as
// one structure with per-function partitions (blocks of different
// functions are never connected by CFG edges; calls produce a
// call-continuation edge inside the caller instead).
type Graph struct {
	prog *isa.Program

	nodes map[isa.BlockID]bool
	succs map[isa.BlockID][]isa.BlockID
	seen  map[edge]bool

	// Entries records the observed entry block of each executed
	// function.
	Entries map[isa.FuncID]isa.BlockID
}

type edge struct{ src, dst isa.BlockID }

// NewGraph creates an empty dynamic CFG for prog.
func NewGraph(prog *isa.Program) *Graph {
	return &Graph{
		prog:    prog,
		nodes:   map[isa.BlockID]bool{},
		succs:   map[isa.BlockID][]isa.BlockID{},
		seen:    map[edge]bool{},
		Entries: map[isa.FuncID]isa.BlockID{},
	}
}

// AddNode records that a block executed.
func (g *Graph) AddNode(b isa.BlockID) {
	if b != isa.NoBlock {
		g.nodes[b] = true
	}
}

// AddEdge records a control transfer between two blocks of the same
// function (duplicates are ignored).
func (g *Graph) AddEdge(src, dst isa.BlockID) {
	g.AddNode(src)
	g.AddNode(dst)
	e := edge{src, dst}
	if g.seen[e] {
		return
	}
	g.seen[e] = true
	g.succs[src] = append(g.succs[src], dst)
}

// Succs returns the recorded successors of a block.
func (g *Graph) Succs(b isa.BlockID) []isa.BlockID { return g.succs[b] }

// FuncBlocks returns the executed blocks of one function, sorted.
func (g *Graph) FuncBlocks(fn isa.FuncID) []isa.BlockID {
	var out []isa.BlockID
	for b := range g.nodes {
		if g.prog.Block(b).Fn == fn {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Funcs returns the executed functions, sorted.
func (g *Graph) Funcs() []isa.FuncID {
	set := map[isa.FuncID]bool{}
	for b := range g.nodes {
		set[g.prog.Block(b).Fn] = true
	}
	var out []isa.FuncID
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Recorder consumes the pass-1 control event stream ("Instrumentation
// I") and populates a Graph plus the dynamic call-graph edges.
type Recorder struct {
	G *Graph

	// CallEdges holds observed (caller, callee, call-site block)
	// triples for the call-graph stage.
	CallEdges []CallEdge

	callEdgeSeen map[CallEdge]bool
	// stack of pending call sites so a Return can be attributed to the
	// block that made the call (for the call-continuation CFG edge).
	sites []isa.BlockID
}

// CallEdge is one dynamic call-graph edge with its call site.
type CallEdge struct {
	Caller isa.FuncID
	Callee isa.FuncID
	Site   isa.BlockID
}

// NewRecorder creates a recorder feeding a fresh Graph for prog.
func NewRecorder(prog *isa.Program) *Recorder {
	return &Recorder{G: NewGraph(prog), callEdgeSeen: map[CallEdge]bool{}}
}

// Control implements trace.Hook.
func (r *Recorder) Control(ev trace.ControlEvent) {
	switch ev.Kind {
	case trace.Jump:
		if ev.Src == isa.NoBlock {
			// Program entry: record main's entry block.
			r.G.AddNode(ev.Dst)
			r.G.Entries[r.G.prog.Block(ev.Dst).Fn] = ev.Dst
			return
		}
		r.G.AddEdge(ev.Src, ev.Dst)
	case trace.Call:
		r.G.AddNode(ev.Src)
		r.G.AddNode(ev.Dst)
		r.G.Entries[ev.Callee] = ev.Dst
		ce := CallEdge{Caller: ev.Caller, Callee: ev.Callee, Site: ev.Src}
		if !r.callEdgeSeen[ce] {
			r.callEdgeSeen[ce] = true
			r.CallEdges = append(r.CallEdges, ce)
		}
		r.sites = append(r.sites, ev.Src)
	case trace.Return:
		if n := len(r.sites); n > 0 {
			site := r.sites[n-1]
			r.sites = r.sites[:n-1]
			// Call-continuation edge: the call behaves as an atomic
			// instruction inside the caller's CFG.
			r.G.AddEdge(site, ev.Dst)
		}
	}
}

// Instr implements trace.Hook as a no-op (pass 1 only watches control).
func (r *Recorder) Instr(trace.InstrEvent, *isa.Instr) {}

// Loop is one CFG loop: an SCC region with a designated header.
type Loop struct {
	ID     int
	Fn     isa.FuncID
	Header isa.BlockID
	// Blocks is the loop region including all nested sub-loop blocks.
	Blocks   map[isa.BlockID]bool
	Parent   *Loop
	Children []*Loop
	Depth    int // 1 for outermost loops
}

// Contains reports whether the block belongs to the loop region.
func (l *Loop) Contains(b isa.BlockID) bool { return l.Blocks[b] }

// String renders the loop for diagnostics.
func (l *Loop) String() string {
	var ids []int
	for b := range l.Blocks {
		ids = append(ids, int(b))
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return fmt.Sprintf("L%d(header=%d depth=%d blocks={%s})", l.ID, l.Header, l.Depth, strings.Join(parts, ","))
}

// Forest is the loop-nesting forest of a whole program (union of the
// per-function forests).
type Forest struct {
	Loops []*Loop
	// Roots holds outermost loops per function.
	Roots map[isa.FuncID][]*Loop
	// headerOf maps a header block to its loop.
	headerOf map[isa.BlockID]*Loop
	// loopOf maps a block to the innermost loop containing it.
	loopOf map[isa.BlockID]*Loop
}

// LoopOf returns the innermost loop containing b, or nil.
func (f *Forest) LoopOf(b isa.BlockID) *Loop { return f.loopOf[b] }

// HeaderLoop returns the loop headed by b, or nil.
func (f *Forest) HeaderLoop(b isa.BlockID) *Loop { return f.headerOf[b] }

// IsHeader reports whether b heads a loop.
func (f *Forest) IsHeader(b isa.BlockID) bool { return f.headerOf[b] != nil }

// BuildForest computes the loop-nesting forest of every executed
// function in the dynamic CFG.
func BuildForest(g *Graph) *Forest {
	f := &Forest{
		Roots:    map[isa.FuncID][]*Loop{},
		headerOf: map[isa.BlockID]*Loop{},
		loopOf:   map[isa.BlockID]*Loop{},
	}
	for _, fn := range g.Funcs() {
		nodes := g.FuncBlocks(fn)
		adj := map[isa.BlockID][]isa.BlockID{}
		for _, b := range nodes {
			adj[b] = append([]isa.BlockID(nil), g.Succs(b)...)
		}
		roots := buildLoops(f, fn, nodes, adj, nil)
		f.Roots[fn] = roots
	}
	// Resolve innermost-loop membership: visit loops outermost-first so
	// deeper loops overwrite.
	var visit func(l *Loop)
	visit = func(l *Loop) {
		for b := range l.Blocks {
			f.loopOf[b] = l
		}
		for _, c := range l.Children {
			visit(c)
		}
	}
	// Children overwrite parents only for their own blocks; ensure
	// parents first, then children: visit does exactly that, but block
	// sets of children are subsets assigned after the parent pass.
	for _, roots := range f.Roots {
		for _, r := range roots {
			visit(r)
		}
	}
	return f
}

// buildLoops applies the recursive SCC definition to the subgraph
// (nodes, adj) and returns the loops found at this level.
func buildLoops(f *Forest, fn isa.FuncID, nodes []isa.BlockID, adj map[isa.BlockID][]isa.BlockID, parent *Loop) []*Loop {
	sccs := stronglyConnected(nodes, adj)
	var loops []*Loop
	inNodes := map[isa.BlockID]bool{}
	for _, n := range nodes {
		inNodes[n] = true
	}
	for _, scc := range sccs {
		if !hasCycle(scc, adj) {
			continue
		}
		inSCC := map[isa.BlockID]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		header := chooseHeader(scc, inSCC, nodes, adj)
		l := &Loop{
			ID:     len(f.Loops),
			Fn:     fn,
			Header: header,
			Blocks: inSCC,
			Parent: parent,
			Depth:  1,
		}
		if parent != nil {
			l.Depth = parent.Depth + 1
			parent.Children = append(parent.Children, l)
		}
		f.Loops = append(f.Loops, l)
		if prev := f.headerOf[header]; prev != nil {
			// A block heading two loops would mean an irreducible region
			// our generator never produces; keep the outermost binding.
			continue
		}
		f.headerOf[header] = l

		// Remove back-edges (edges inside the SCC targeting the header)
		// and recurse to find sub-loops.
		sub := map[isa.BlockID][]isa.BlockID{}
		for _, n := range scc {
			for _, s := range adj[n] {
				if inSCC[s] && s != header {
					sub[n] = append(sub[n], s)
				}
			}
		}
		buildLoops(f, fn, scc, sub, l)
		loops = append(loops, l)
	}
	return loops
}

// chooseHeader picks the loop header among the SCC's entry nodes: the
// smallest-ID node with an incoming edge from outside the SCC (smallest
// ID gives deterministic results; in our generated code it is also the
// natural header since blocks are numbered in emission order).
func chooseHeader(scc []isa.BlockID, inSCC map[isa.BlockID]bool, allNodes []isa.BlockID, adj map[isa.BlockID][]isa.BlockID) isa.BlockID {
	entries := map[isa.BlockID]bool{}
	for _, n := range allNodes {
		if inSCC[n] {
			continue
		}
		for _, s := range adj[n] {
			if inSCC[s] {
				entries[s] = true
			}
		}
	}
	best := isa.NoBlock
	if len(entries) > 0 {
		for e := range entries {
			if best == isa.NoBlock || e < best {
				best = e
			}
		}
		return best
	}
	for _, n := range scc {
		if best == isa.NoBlock || n < best {
			best = n
		}
	}
	return best
}

func hasCycle(scc []isa.BlockID, adj map[isa.BlockID][]isa.BlockID) bool {
	if len(scc) > 1 {
		return true
	}
	n := scc[0]
	for _, s := range adj[n] {
		if s == n {
			return true
		}
	}
	return false
}

// stronglyConnected returns the SCCs of the subgraph using an iterative
// Tarjan algorithm (iterative so deep CFGs cannot overflow the Go
// stack).
func stronglyConnected(nodes []isa.BlockID, adj map[isa.BlockID][]isa.BlockID) [][]isa.BlockID {
	index := map[isa.BlockID]int{}
	low := map[isa.BlockID]int{}
	onStack := map[isa.BlockID]bool{}
	var stack []isa.BlockID
	var sccs [][]isa.BlockID
	next := 0

	type task struct {
		node isa.BlockID
		succ int
	}
	inNodes := map[isa.BlockID]bool{}
	for _, n := range nodes {
		inNodes[n] = true
	}

	for _, start := range nodes {
		if _, done := index[start]; done {
			continue
		}
		work := []task{{start, 0}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true

		for len(work) > 0 {
			t := &work[len(work)-1]
			n := t.node
			succs := adj[n]
			advanced := false
			for t.succ < len(succs) {
				s := succs[t.succ]
				t.succ++
				if !inNodes[s] {
					continue
				}
				if _, seen := index[s]; !seen {
					index[s] = next
					low[s] = next
					next++
					stack = append(stack, s)
					onStack[s] = true
					work = append(work, task{s, 0})
					advanced = true
					break
				}
				if onStack[s] && index[s] < low[n] {
					low[n] = index[s]
				}
			}
			if advanced {
				continue
			}
			// Done with n.
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].node
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
			if low[n] == index[n] {
				var scc []isa.BlockID
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == n {
						break
					}
				}
				sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
