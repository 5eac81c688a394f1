// Package ddg builds the dynamic dependence graph (paper Sec. 4): one
// vertex per dynamic instruction, one edge per data dependence, with
// every vertex tagged by its dynamic interprocedural iteration vector.
// Vertices and edges are never materialized individually — each
// (statement, context) stream and each (producer, consumer) dependence
// stream is folded on the fly (Sec. 5), so memory stays proportional to
// the folded representation, not to the trace.
//
// Data dependencies are tracked through two mechanisms, as in the
// paper's "Instrumentation II":
//
//   - a shadow memory records the last dynamic instruction that wrote
//     each word (flow deps), the previous writer (output deps) and the
//     last reader (anti deps, last-reader approximation);
//   - per-frame register tables record the producing instruction of
//     every live register value, with call arguments and return values
//     linked across frames.
//
// This is the one implementation of that algorithm.  Shadow memory and
// fold streams are split into address partitions (partition.go), so
// the same code runs in line on the VM goroutine (NewBuilder) or on N
// goroutines behind the batch dispatcher in internal/parddg.
package ddg

import (
	"fmt"
	"sort"

	"polyprof/internal/budget"
	"polyprof/internal/faultinject"
	"polyprof/internal/fold"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/trace"
)

// Kind classifies dependence edges.
type Kind uint8

// Dependence kinds.
const (
	FlowMem Kind = iota // read after write through memory
	FlowReg             // read after write through a register
	Output              // write after write through memory
	Anti                // write after read through memory
)

func (k Kind) String() string {
	switch k {
	case FlowMem:
		return "flow"
	case FlowReg:
		return "reg"
	case Output:
		return "output"
	case Anti:
		return "anti"
	}
	return "dep(?)"
}

// Stmt is a (basic block, context) pair: the folding granularity for
// iteration domains.  All instructions of the block share its domain.
type Stmt struct {
	ID    int
	Block isa.BlockID
	Ctx   string
	Depth int
	Count uint64 // dynamic executions of the block under this context

	// derives marks a block with in-block register pairs: its folder
	// labels every instance with its own coordinates, the piece its
	// derived bundles take (derive.go).
	derives bool
	folder  *fold.Folder
	Domain  fold.Piece // valid after Finish
}

// labelW is the label width of the statement's domain folder.
func (s *Stmt) labelW() int {
	if s.derives {
		return s.Depth
	}
	return 0
}

// label is the label of the instance at coords in the domain stream.
func (s *Stmt) label(coords []int64) []int64 {
	if s.derives {
		return coords
	}
	return nil
}

// Instr is a static instruction in a specific context; the unit for
// value (SCEV) and access (stride) folding and the endpoint of
// dependence edges.
type Instr struct {
	ID    int
	Ref   trace.InstrRef
	Ctx   string
	Depth int
	Op    isa.Opcode
	Loc   isa.SrcLoc
	Stmt  *Stmt
	Count uint64

	valueFolder  *fold.Folder // int-producing instructions
	accessFolder *fold.Folder // memory instructions (label = address)
	hasValue     bool
	hasAccess    bool
	// term marks the block's terminator, where the statement's domain
	// stream takes the instance's point.
	term bool
	// boxed lists, once per operand, the derived bundles into this
	// instruction whose edge grant was refused; each event extends
	// their degraded boxes.
	boxed []*Dep

	Value  fold.Piece // valid after Finish when valueFolder != nil
	Access fold.Piece // valid after Finish when accessFolder != nil

	// IsSCEV marks instructions whose produced values folded to an
	// affine function of the iteration vector (scalar evolutions); their
	// dependence chains are removed from the DDG per Sec. 5.
	IsSCEV bool
}

// HasValue reports whether the instruction produced foldable integer
// values.
func (i *Instr) HasValue() bool { return i.hasValue }

// HasAccess reports whether the instruction accessed memory.
func (i *Instr) HasAccess() bool { return i.hasAccess }

// Dep is a folded dependence-edge bundle between two instruction
// contexts.
type Dep struct {
	Src, Dst *Instr
	Kind     Kind
	Count    uint64

	// Degraded marks bundles holding an over-approximated coarse piece
	// produced under budget pressure: a point from a degraded range
	// summary (see degrade.go) or a bundle refused its edge.  Their
	// final piece has no affine function, which the scheduler treats
	// as a star dependence.
	Degraded bool

	folder *fold.MultiFolder
	box    *coordBox // summary-point consumer box, merged into Pieces at Finish
	// mult is a derived bundle's operand multiplicity: its count is
	// mult times its consumer's (derive.go).  Zero for folded bundles.
	mult uint64
	// check folds a derived bundle's points under the cross-check.
	check *fold.MultiFolder
	// Pieces folds the dependence as a union: each piece's domain is a
	// set of consumer coordinates and its Fn maps them to the producer
	// coordinates.  Piecewise-affine dependencies (in-place stencils,
	// boundary clamps) need more than one piece.
	Pieces []fold.Piece
}

func (d *Dep) String() string {
	return fmt.Sprintf("%v: I%d -> I%d (%d pts, %d pieces)", d.Kind, d.Src.ID, d.Dst.ID, d.Count, len(d.Pieces))
}

// Piece returns the first (dominant) piece, for single-piece consumers.
func (d *Dep) Piece() fold.Piece {
	if len(d.Pieces) == 0 {
		return fold.Piece{}
	}
	return d.Pieces[0]
}

// Options tunes the builder.  Every dependence kind is always tracked:
// register flow, memory flow, anti (write-after-read, last-reader
// approximation) and output (write-after-write).
type Options struct {
	// NoStrideDetection disables the lattice folding extension
	// (ablation: the paper's published folder, which over-approximates
	// strided domains).
	NoStrideDetection bool
	// Obs is the span-context the builder publishes its metrics into;
	// the zero Scope targets the process-wide default registry.
	Obs obs.Scope
	// Budget, when set, bounds shadow-memory bytes and dependence
	// edges.  Exhaustion degrades the graph to coarse range summaries
	// (see degrade.go) instead of failing the run.
	Budget *budget.Budget
	// Stream enables epoch fold-and-release (epoch.go): shadow records
	// untouched for a full epoch fold into conservative range summaries
	// and return their bytes to the budget, so a trace far larger than
	// MaxShadowBytes profiles without tripping degradation.  Set by the
	// streaming driver in core when both an epoch size and a shadow
	// budget are configured.
	Stream bool
}

// DefaultOptions is the paper's configuration with the lattice
// extension enabled: the zero Options.
func DefaultOptions() Options { return Options{} }

type writerRec struct {
	instr  *Instr
	coords []int64
	// seen is the epoch of the last touch and grant the budget bytes
	// charged for this record; both drive the streaming fold-and-release
	// cycle (epoch.go) and are dead weight otherwise.
	seen  uint64
	grant uint64
}

func (w *writerRec) set(instr *Instr, coords []int64) {
	w.instr = instr
	w.coords = append(w.coords[:0], coords...)
}

type frame struct {
	regw   []writerRec
	retDst isa.Reg // destination register in the caller
}

// stmtKey identifies a statement: a block under a context.
type stmtKey struct {
	ctx string
	blk isa.BlockID
}

// blockVerts are the vertices of one statement: the statement and its
// block's instructions by index (nil until first executed), with the
// block's in-block reaching definitions (see inBlockDefs).
type blockVerts struct {
	stmt   *Stmt
	instrs []*Instr
	defs   [][]int32
}

type depKey struct {
	src, dst int
	kind     Kind
}

// Graph is the folded dynamic dependence graph of one execution.
type Graph struct {
	Stmts  []*Stmt
	Instrs []*Instr
	Deps   []*Dep

	// Degraded is non-nil when a resource budget tripped during the
	// run and parts of the graph were coarsened (see degrade.go).
	Degraded *Degradation

	// TotalOps/MemOps/FPOps are the dynamic operation counters observed
	// by this builder (equal to the VM's when attached to a full run).
	TotalOps uint64
	MemOps   uint64
	FPOps    uint64
}

// Builder implements core.InstrSink, constructing a Graph during the
// pass-2 run.  It is split in two halves (see partition.go):
//
//   - the sequencer, here: op counters, statement and instruction
//     identity, dynamic counts and the register/frame mirror — the
//     order-sensitive work that must see every event in program order;
//   - the partitions: shadow memory for a slice of the address space,
//     the range summaries for that slice, and the fold
//     streams the ownership hash assigns them.
//
// A Builder from NewBuilder is one in-line partition driven by OnInstr.
// NewPartitioned builds N partitions for the parallel engine
// (internal/parddg), which drives the same code in batches through
// Sequence, Resolve and Fold.
type Builder struct {
	prog   *isa.Program
	opts   Options
	insert *faultinject.P // fault point of the shadow-record grants
	// inline marks a NewBuilder builder, folding in line with no batch
	// driver; the others publish per-partition ddg.shard.* metrics.
	inline bool

	verts    map[stmtKey]*blockVerts
	allStmts []*Stmt
	allInst  []*Instr
	// cur is the vertex table of the last event's context and block
	// (cur.stmt.Ctx, cur.stmt.Block): events stay in one block until
	// the next control event, so a table switch, one verts lookup,
	// happens once per block entered.
	cur *blockVerts

	frames      []frame
	pendingArgs []writerRec
	pendingDst  isa.Reg
	pendingRet  writerRec
	usesBuf     []isa.Reg

	// defs caches each block's in-block reaching definitions, computed
	// when its first statement is created.
	defs map[isa.BlockID][][]int32
	// derived and allDerived hold the in-block register-flow bundles,
	// sequencer state no partition touches (derive.go).
	derived    map[depKey]*Dep
	allDerived []*Dep
	// last is the last instruction sequenced; when it is not a
	// terminator its block instance, at coordinates openCoords, is in
	// flight.
	last       *Instr
	openCoords []int64
	// checking is the cross-check setting the builder was made under.
	checking bool

	totalOps, memOps, fpOps uint64

	// curRegWords/peakRegWords track the live register-table size
	// (writer records across all mirrored frames); maintained with plain
	// integer arithmetic on call/return so the per-instruction path is
	// untouched, published to the metrics registry in Finish.
	curRegWords, peakRegWords int

	// writers/readers are the last writer and last reader per word.
	// Partition p owns the words of every range k with
	// k % len(parts) == p; no other partition touches them.
	writers, readers []writerRec
	parts            []*partition

	// Streaming fold-and-release state (epoch.go): epochN counts epoch
	// boundaries from 1 when opts.Stream, releasedBytes totals the
	// budget bytes returned so far.  Both change only between batches.
	epochN        uint64
	releasedBytes uint64
	// pinTripped carries the live budget's tripped list into a
	// provisional clone, whose own Budget is nil (see Clone).
	pinTripped []string
}

// NewBuilder creates a DDG builder for one execution of prog: a single
// partition folding every event in line.
func NewBuilder(prog *isa.Program, opts Options) *Builder {
	b := NewPartitioned(prog, opts, 1, shadowFault)
	b.inline = true
	return b
}

// NewPartitioned creates a builder with n address partitions for a
// batch driver; insert is the fault point its shadow-record grants hit.
func NewPartitioned(prog *isa.Program, opts Options, n int, insert *faultinject.P) *Builder {
	b := newBuilder(prog, opts, n, insert)
	b.writers = make([]writerRec, prog.MemWords)
	b.readers = make([]writerRec, prog.MemWords)
	main := prog.Func(prog.Main)
	b.frames = append(b.frames, frame{regw: make([]writerRec, main.NumRegs), retDst: isa.NoReg})
	b.curRegWords = main.NumRegs
	b.peakRegWords = b.curRegWords
	// Charge the fixed record tables up front; a budget too small for
	// them refuses every record, so every memory event joins its
	// range's summary.
	opts.Budget.GrantShadow(baseShadowBytes(prog.MemWords))
	return b
}

// newBuilder creates the empty vertex tables and partitions, without
// shadow memory or frames (a clone never needs them).
func newBuilder(prog *isa.Program, opts Options, n int, insert *faultinject.P) *Builder {
	b := &Builder{
		prog:     prog,
		opts:     opts,
		insert:   insert,
		verts:    map[stmtKey]*blockVerts{},
		defs:     map[isa.BlockID][][]int32{},
		derived:  map[depKey]*Dep{},
		checking: crossCheck.Load(),
	}
	if opts.Stream {
		b.epochN = 1
	}
	for i := 0; i < max(n, 1); i++ {
		b.parts = append(b.parts, &partition{b: b, id: i, summ: map[int64]*rangeSummary{}})
	}
	return b
}

func (b *Builder) curFrame() *frame { return &b.frames[len(b.frames)-1] }

// newFolder creates a stream folder honoring the builder options.
func (b *Builder) newFolder(dim, labelW int) *fold.Folder {
	f := fold.NewFolder(dim, labelW)
	f.Obs = b.opts.Obs
	if b.opts.NoStrideDetection {
		f.DetectStrides = false
	}
	return f
}

// OnControl implements core.InstrSink: it mirrors the call stack so
// register dependencies flow through calls and returns.
func (b *Builder) OnControl(ev trace.ControlEvent) {
	switch ev.Kind {
	case trace.Call:
		callee := b.prog.Func(ev.Callee)
		f := frame{regw: make([]writerRec, callee.NumRegs), retDst: b.pendingDst}
		for i, w := range b.pendingArgs {
			if i < len(f.regw) {
				f.regw[i] = writerRec{instr: w.instr, coords: append([]int64(nil), w.coords...)}
			}
		}
		b.frames = append(b.frames, f)
		b.curRegWords += len(f.regw)
		if b.curRegWords > b.peakRegWords {
			b.peakRegWords = b.curRegWords
		}
	case trace.Return:
		top := b.frames[len(b.frames)-1]
		b.frames = b.frames[:len(b.frames)-1]
		b.curRegWords -= len(top.regw)
		if len(b.frames) > 0 && top.retDst != isa.NoReg && b.pendingRet.instr != nil {
			b.curFrame().regw[top.retDst].set(b.pendingRet.instr, b.pendingRet.coords)
		}
		b.pendingRet = writerRec{}
	}
}

// addStmt and addInstr intern a vertex under its (context, block) and
// append it in ID order; a statement precedes its instructions.
func (b *Builder) addStmt(s *Stmt) *blockVerts {
	bv := &blockVerts{stmt: s, instrs: make([]*Instr, len(b.prog.Block(s.Block).Code)), defs: b.blockDefs(s.Block)}
	s.derives = bv.defs != nil
	b.verts[stmtKey{s.Ctx, s.Block}] = bv
	b.allStmts = append(b.allStmts, s)
	return bv
}

func (b *Builder) addInstr(bv *blockVerts, i *Instr) {
	bv.instrs[i.Ref.Index] = i
	b.allInst = append(b.allInst, i)
}

// vertsFor returns the vertex table of block blk under context ctx,
// creating its statement on first execution.
func (b *Builder) vertsFor(ctx string, blk isa.BlockID, depth int) *blockVerts {
	if bv := b.cur; bv != nil && bv.stmt.Block == blk && bv.stmt.Ctx == ctx {
		return bv
	}
	bv, ok := b.verts[stmtKey{ctx, blk}]
	if !ok {
		bv = b.addStmt(&Stmt{ID: len(b.allStmts), Block: blk, Ctx: ctx, Depth: depth})
	}
	b.cur = bv
	return bv
}

// ensureFolders gives every stream its folder.  Streams get theirs
// from the partition folding their first point, so that each folder is
// allocated by the goroutine that writes it (folders allocated by the
// sequencer shared cache lines with its own hot data).  A stream that
// never saw a point still folds, to an empty piece.
func (b *Builder) ensureFolders() {
	for _, s := range b.allStmts {
		if s.folder == nil {
			s.folder = b.newFolder(s.Depth, s.labelW())
		}
	}
	for _, i := range b.allInst {
		if i.hasValue && i.valueFolder == nil {
			i.valueFolder = b.newFolder(i.Depth, 1)
		}
		if i.hasAccess && i.accessFolder == nil {
			i.accessFolder = b.newFolder(i.Depth, 1)
		}
	}
}

// newInstr builds an instruction vertex and classifies its value and
// access streams; their folders come later (see ensureFolders).
func (b *Builder) newInstr(id int, ref trace.InstrRef, ctx string, in *isa.Instr, stmt *Stmt) *Instr {
	return &Instr{
		ID:        id,
		Ref:       ref,
		Ctx:       ctx,
		Depth:     stmt.Depth,
		Op:        in.Op,
		Loc:       in.Loc,
		Stmt:      stmt,
		hasValue:  in.Op.ProducesInt() && in.Dst != isa.NoReg,
		hasAccess: in.Op.IsMem(),
		term:      in.Op.IsTerminator(),
	}
}

// OnInstr implements core.InstrSink: the sequencer step, then the
// single partition resolves and folds the event in line.
func (b *Builder) OnInstr(ctxKey string, coords []int64, ev trace.InstrEvent, in *isa.Instr) {
	e := b.Sequence(ctxKey, coords, ev, in, nil, 0)
	p := b.parts[0]
	if e.Instr.term {
		p.foldDomain(&e)
	}
	if e.Addr >= 0 {
		p.foldAccess(&e)
		p.resolve(&e, nil, 0)
	}
	if e.Valued {
		p.foldValue(&e)
	}
}

// Sequence is the order-sensitive half of one event: op counters,
// statement and instruction identity, dynamic counts and the
// register/frame mirror.  Register-flow dependences resolve here,
// because the mirror lives here: with regs nil (one partition) they
// fold in line, otherwise they are recorded in regs as points of
// batch event ev.  Operands defined earlier in the same block are
// neither: their bundles are derived (derive.go).  The returned event
// is what the partitions need.
func (b *Builder) Sequence(ctxKey string, coords []int64, ev trace.InstrEvent, in *isa.Instr, regs *Points, evIdx int32) Event {
	b.totalOps++
	if in.Op.IsFP() {
		b.fpOps++
	}
	bv := b.vertsFor(ctxKey, ev.Ref.Block, len(coords))
	stmt := bv.stmt
	idx := ev.Ref.Index
	if idx == 0 {
		stmt.Count++
	}
	if idx == 0 || b.last == nil {
		// The instance's coordinates, kept for a finish while it is in
		// flight (coords is only valid during the call).
		b.openCoords = append(b.openCoords[:0], coords...)
	}
	instr := bv.instrs[idx]
	if instr == nil {
		instr = b.newInstr(len(b.allInst), ev.Ref, ctxKey, in, stmt)
		b.addInstr(bv, instr)
	}
	instr.Count++
	b.last = instr
	e := Event{Instr: instr, Coords: coords, Addr: ev.Addr}

	fr := b.curFrame()
	// Register flow dependencies: one edge per operand whose producer is
	// known.
	var local []int32
	if bv.defs != nil {
		local = bv.defs[idx]
	}
	b.usesBuf = in.Uses(b.usesBuf)
	for u, r := range b.usesBuf {
		if local != nil && local[u] >= 0 {
			if instr.Count == 1 || b.checking {
				b.inBlockOperand(bv.instrs[local[u]], instr, bv.defs, coords)
			}
			continue
		}
		if int(r) < len(fr.regw) {
			if w := &fr.regw[r]; w.instr != nil {
				if regs == nil {
					b.parts[0].addDep(w.instr, w.coords, instr, coords, FlowReg)
				} else {
					regs.add(evIdx, w.instr, w.coords, FlowReg)
				}
			}
		}
	}
	for _, d := range instr.boxed {
		d.box.extend(coords)
	}
	if ev.Addr >= 0 {
		b.memOps++
		e.Write = in.Op.IsMemWrite()
	}

	// Produced values (for SCEV recognition) and the register writer
	// table.
	if in.Op.WritesDst() && in.Dst != isa.NoReg && in.Op != isa.Call {
		if instr.hasValue {
			e.Valued = true
			e.Value = ev.Value
		}
		if int(in.Dst) < len(fr.regw) {
			fr.regw[in.Dst].set(instr, coords)
		}
	}

	// Call/return linkage for the frame mirror.
	switch in.Op {
	case isa.Call:
		b.pendingArgs = b.pendingArgs[:0]
		for _, a := range in.Args {
			if int(a) < len(fr.regw) {
				b.pendingArgs = append(b.pendingArgs, fr.regw[a])
			} else {
				b.pendingArgs = append(b.pendingArgs, writerRec{})
			}
		}
		b.pendingDst = in.Dst
	case isa.Ret:
		if in.A != isa.NoReg && int(in.A) < len(fr.regw) {
			b.pendingRet = fr.regw[in.A]
		} else {
			b.pendingRet = writerRec{}
		}
	}
	return e
}

// Finish folds every stream and runs SCEV elimination, returning the
// folded graph.  It panics on an injected fault or hard-budget abort;
// budget-governed callers use FinishChecked.
func (b *Builder) Finish() *Graph {
	g, err := b.FinishChecked()
	if err != nil {
		panic(err)
	}
	return g
}

// FinishChecked is Finish with error reporting: it surfaces injected
// faults and polls the hard budget (deadline, cancellation) between
// folding batches, so a degenerate graph cannot stall the stage past
// its deadline.
func (b *Builder) FinishChecked() (*Graph, error) {
	for _, p := range b.parts {
		if p.faultErr != nil {
			return nil, p.faultErr
		}
	}
	bud := b.opts.Budget
	checkEvery := 0
	check := func() error {
		checkEvery++
		if checkEvery&4095 == 0 {
			return bud.Check("fold")
		}
		return nil
	}
	b.ensureFolders()
	g := &Graph{
		Stmts:    b.allStmts,
		Instrs:   b.allInst,
		TotalOps: b.totalOps,
		MemOps:   b.memOps,
		FPOps:    b.fpOps,
	}
	flow, open, err := b.finishStmts(g.Stmts, check)
	if err != nil {
		return nil, err
	}
	for _, i := range g.Instrs {
		if i.valueFolder != nil {
			i.Value = i.valueFolder.Finish()
			i.valueFolder = nil
		}
		if i.accessFolder != nil {
			i.Access = i.accessFolder.Finish()
			i.accessFolder = nil
		}
		// SCEV recognition: pure integer ALU whose values are an affine
		// function of the iteration vector.  Assignment (not a latch) so
		// finishing restored or cloned state recomputes the flag.
		i.IsSCEV = i.Op.IsIntALU() && i.Value.Fn != nil
		if err := check(); err != nil {
			return nil, err
		}
	}
	// Fold dependencies, dropping chains into SCEV instructions.
	for _, p := range b.parts {
		for _, d := range p.allDeps {
			if d.Src.IsSCEV || d.Dst.IsSCEV {
				continue
			}
			if d.folder != nil {
				d.Pieces = d.folder.Finish()
				d.folder = nil
			}
			if d.box != nil {
				d.Pieces = append(d.Pieces, d.box.piece())
				if d.Count == 0 {
					d.Count = d.box.n
				}
				d.box = nil
			}
			g.Deps = append(g.Deps, d)
			if err := check(); err != nil {
				return nil, err
			}
		}
	}
	if err := b.finishDerived(g, flow, open, check); err != nil {
		return nil, err
	}
	sortDeps(g.Deps)
	b.buildDegradation(g)
	b.publishMetrics(g)
	return g, nil
}

// sortDeps orders bundles by (src, dst, kind), the graph's canonical
// order whatever partition folded them.
func sortDeps(deps []*Dep) {
	sort.Slice(deps, func(i, j int) bool {
		a, c := deps[i], deps[j]
		if a.Src.ID != c.Src.ID {
			return a.Src.ID < c.Src.ID
		}
		if a.Dst.ID != c.Dst.ID {
			return a.Dst.ID < c.Dst.ID
		}
		return a.Kind < c.Kind
	})
}

// publishMetrics records the builder's structural statistics (shadow
// memory footprint, register-table peak, folded vs. emitted dependence
// edges, per-partition load under a batch driver) in the builder's scoped
// metrics registry.
func (b *Builder) publishMetrics(g *Graph) {
	sc := b.opts.Obs
	if !sc.Enabled() {
		return
	}
	folded := len(b.allDerived)
	for _, p := range b.parts {
		folded += len(p.allDeps)
	}
	var derivedPoints uint64
	for _, d := range b.allDerived {
		derivedPoints += d.mult * d.Dst.Count
	}
	// Two writer records per program word: last writer + last reader.
	sc.MaxGauge("ddg.shadow.words", int64(len(b.writers)+len(b.readers)))
	sc.MaxGauge("ddg.regtable.peak_words", int64(b.peakRegWords))
	sc.Add("ddg.stmts", uint64(len(g.Stmts)))
	sc.Add("ddg.instrs", uint64(len(g.Instrs)))
	sc.Add("ddg.deps.folded", uint64(folded))
	sc.Add("ddg.deps.emitted", uint64(len(g.Deps)))
	sc.Add("ddg.deps.scev_elided", uint64(folded-len(g.Deps)))
	sc.Add("ddg.deps.derived", uint64(len(b.allDerived)))
	sc.Add("ddg.dep.points.derived", derivedPoints)
	sc.Add("ddg.events.instr", b.totalOps)
	sc.Add("ddg.events.mem", b.memOps)
	var depPoints uint64
	for _, d := range g.Deps {
		depPoints += d.Count
		sc.Observe("ddg.dep.points", d.Count)
	}
	sc.Add("ddg.dep.points.total", depPoints)
	if b.opts.Stream {
		stale := 0
		for _, p := range b.parts {
			stale += len(p.summ)
		}
		sc.Add("ddg.stream.epochs", b.epochN-1)
		sc.Add("ddg.stream.released_bytes", b.releasedBytes)
		sc.Add("ddg.stream.stale_ranges", uint64(stale))
	}
	if deg := g.Degraded; deg != nil {
		sc.Add("ddg.degraded.runs", 1)
		sc.Add("ddg.degraded.coarse_deps", uint64(deg.CoarseDeps))
		sc.Add("ddg.degraded.coarse_events", deg.CoarseEvents)
		sc.Add("ddg.degraded.regions", uint64(len(deg.Regions)))
	}
	if !b.inline {
		sc.SetGauge("ddg.shard.count", int64(len(b.parts)))
		var maxPts uint64
		for _, p := range b.parts {
			sc.Add("ddg.shard.mem_events", p.memEvents)
			sc.Add("ddg.shard.points", p.points)
			maxPts = max(maxPts, p.points)
		}
		sc.MaxGauge("ddg.shard.points.max", int64(maxPts))
	}
}
