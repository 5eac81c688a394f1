// The shadow-partition core.  A partition owns a slice of the address
// space — the writer and reader records of every range k with
// k % N == id and that slice's range summaries — and the fold streams
// the ownership hash assigns it.  Each event takes two steps through
// the partitions after the sequencer (ddg.go):
//
//  1. resolve: the partition owning the event's address looks up its
//     shadow records and yields the memory-dependence points;
//  2. fold: every stream gets its points from its one owner, in event
//     order — the order the folders' greedy run recognition needs.
//
// The in-line Builder (one partition) does both per event and folds
// points as they are found.  The parallel engine runs the two steps
// over whole batches on N partitions (Resolve, then a barrier, then
// Fold), with the points carried between them in Points lists.
package ddg

import "polyprof/internal/fold"

// Event is one sequenced instruction event: what the partitions need
// to resolve its memory access and fold its streams.
type Event struct {
	Instr  *Instr
	Coords []int64
	Addr   int64 // -1 for non-memory instructions
	Value  int64
	Write  bool
	Valued bool // the event feeds Instr's value stream
}

// Point is one resolved dependence point awaiting its stream owner.
type Point struct {
	Ev        int32 // index of the consumer event in its batch
	Src       *Instr
	SrcCoords []int64
	Kind      Kind
	// Summary marks an edge pulled from a range summary: it extends the
	// bundle's bounding box instead of its exact folder, and Degraded
	// marks the summary degraded (see degrade.go).
	Summary, Degraded bool
}

// Points is an event-ordered list of points with an arena holding
// copies of their source coordinates, taken before a later event can
// overwrite the producer's record.
type Points struct {
	List  []Point
	arena []int64
}

// Reset empties the list for reuse, keeping its memory.
func (ps *Points) Reset() {
	ps.List = ps.List[:0]
	ps.arena = ps.arena[:0]
}

func (ps *Points) add(ev int32, src *Instr, srcCoords []int64, kind Kind) {
	off := len(ps.arena)
	ps.arena = append(ps.arena, srcCoords...)
	ps.List = append(ps.List, Point{Ev: ev, Src: src, SrcCoords: ps.arena[off:len(ps.arena):len(ps.arena)], Kind: kind})
}

type partition struct {
	b  *Builder
	id int

	// byDst lists this partition's bundles by consumer Instr.ID; a
	// lookup scans the consumer's few bundles for (Src, Kind).  Each
	// partition owns its lists, so the parallel engine's partitions
	// share no writes.  allDeps holds the same bundles in creation
	// order.
	byDst   [][]*Dep
	allDeps []*Dep

	// summ holds the range summaries of the records this partition
	// released or was refused (degrade.go), by range key.
	summ map[int64]*rangeSummary
	// faultErr latches an error injected on a path that cannot return
	// one; FinishChecked surfaces it.
	faultErr error

	lblBuf []int64
	cur    []int // Fold's read position in each resolver's points

	memEvents uint64 // memory events this partition resolved
	points    uint64 // stream points this partition folded
}

// partOf maps an address to the partition owning its range.
func (b *Builder) partOf(addr int64) int {
	return int((addr >> rangeShift) % int64(len(b.parts)))
}

// ownerOfDep assigns a dependence stream to a partition.  Bundles hash
// by endpoint identity, not address: one bundle can span addresses of
// many partitions, but must have a single folding owner.
func ownerOfDep(src, dst int, kind Kind, n int) int {
	if n == 1 {
		return 0
	}
	h := uint64(src)*0x9E3779B97F4A7C15 ^ uint64(dst)*0xC2B2AE3D27D4EB4F ^ (uint64(kind)+1)*0x165667B19E3779F9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return int(h % uint64(n))
}

// Resolve is the first batch step for partition part: resolve the
// memory events whose address it owns into out.  Partitions touch
// disjoint state, so all of them may resolve one batch concurrently.
func (b *Builder) Resolve(part int, evs []Event, out *Points) {
	p := b.parts[part]
	out.Reset()
	for i := range evs {
		if e := &evs[i]; e.Addr >= 0 && b.partOf(e.Addr) == part {
			p.resolve(e, out, int32(i))
		}
	}
}

// Fold is the second batch step for partition part: fold, in event
// order, every point of the streams it owns — statement domains,
// register-flow points (regs, from Sequence), access and value streams,
// and memory points (mem, indexed by resolving partition).  It may run
// once every partition's Resolve of the batch has returned.
func (b *Builder) Fold(part int, evs []Event, regs []Point, mem []Points) {
	p := b.parts[part]
	n := len(b.parts)
	if len(p.cur) != n {
		p.cur = make([]int, n)
	}
	clear(p.cur)
	ri := 0
	for i := range evs {
		e := &evs[i]
		ev := int32(i)
		id := e.Instr.ID
		if e.Instr.term && e.Instr.Stmt.ID%n == part {
			p.foldDomain(e)
		}
		for ; ri < len(regs) && regs[ri].Ev == ev; ri++ {
			p.foldPoint(&regs[ri], e)
		}
		if e.Addr >= 0 {
			if id%n == part {
				p.foldAccess(e)
			}
			q := b.partOf(e.Addr)
			pts := mem[q].List
			for ; p.cur[q] < len(pts) && pts[p.cur[q]].Ev == ev; p.cur[q]++ {
				p.foldPoint(&pts[p.cur[q]], e)
			}
		}
		if e.Valued && id%n == part {
			p.foldValue(e)
		}
	}
}

// foldDomain, foldAccess and foldValue add the event's point to one of
// its vertex streams, creating the folder on the stream's first point
// (see ensureFolders).
func (p *partition) foldDomain(e *Event) {
	s := e.Instr.Stmt
	if s.folder == nil {
		s.folder = p.b.newFolder(s.Depth, s.labelW())
	}
	s.folder.Add(e.Coords, s.label(e.Coords))
	p.points++
}

func (p *partition) foldAccess(e *Event) {
	i := e.Instr
	if i.accessFolder == nil {
		i.accessFolder = p.b.newFolder(i.Depth, 1)
	}
	p.lblBuf = append(p.lblBuf[:0], e.Addr)
	i.accessFolder.Add(e.Coords, p.lblBuf)
	p.points++
}

func (p *partition) foldValue(e *Event) {
	i := e.Instr
	if i.valueFolder == nil {
		i.valueFolder = p.b.newFolder(i.Depth, 1)
	}
	p.lblBuf = append(p.lblBuf[:0], e.Value)
	i.valueFolder.Add(e.Coords, p.lblBuf)
	p.points++
}

// foldPoint folds pt into its bundle when this partition owns it.
func (p *partition) foldPoint(pt *Point, e *Event) {
	if ownerOfDep(pt.Src.ID, e.Instr.ID, pt.Kind, len(p.b.parts)) != p.id {
		return
	}
	if pt.Summary {
		p.addSummaryDep(pt.Src, e.Instr, pt.Kind, e.Coords, pt.Degraded)
	} else {
		p.addDep(pt.Src, pt.SrcCoords, e.Instr, e.Coords, pt.Kind)
	}
}

// emit hands one resolved memory-dependence point on: into out for a
// later Fold, or (out nil, one partition) straight into its bundle.
func (p *partition) emit(out *Points, ev int32, src *Instr, srcCoords []int64, e *Event, kind Kind) {
	if out != nil {
		out.add(ev, src, srcCoords, kind)
		return
	}
	p.addDep(src, srcCoords, e.Instr, e.Coords, kind)
}

// resolve runs one memory event against this partition's shadow
// records: exact points from the live counterpart records first, then
// summary points for the missing ones (degrade.go), then the event's
// own record.  Without summaries the only extra cost over unbudgeted
// tracking is a grant call on each address's first touch.
func (p *partition) resolve(e *Event, out *Points, ev int32) {
	p.memEvents++
	b := p.b
	w := &b.writers[e.Addr]
	r := &b.readers[e.Addr]
	if e.Write {
		if w.instr != nil {
			p.emit(out, ev, w.instr, w.coords, e, Output)
		}
		if r.instr != nil {
			p.emit(out, ev, r.instr, r.coords, e, Anti)
		}
		if len(p.summ) > 0 && (w.instr == nil || r.instr == nil) {
			p.pull(e, out, ev, w.instr == nil, r.instr == nil)
		}
		p.record(w, e)
		return
	}
	if w.instr != nil {
		p.emit(out, ev, w.instr, w.coords, e, FlowMem)
	} else if len(p.summ) > 0 {
		p.pull(e, out, ev, true, false)
	}
	p.record(r, e)
}

// record points rec, the event's own record, at the event.  A missing
// record asks the budget for its bytes; refused, the event joins its
// range's summary instead and marks it degraded.
func (p *partition) record(rec *writerRec, e *Event) {
	if rec.instr == nil {
		if !p.grantRec(len(e.Coords)) {
			s := p.summary(e.Addr)
			s.refused++
			s.add(e.Instr, e.Coords, e.Write)
			return
		}
		rec.grant = recBytes(len(e.Coords))
	}
	rec.set(e.Instr, e.Coords)
	rec.seen = p.b.epochN
}

// bundle finds or creates the dependence bundle src -> dst of kind.  A
// new exact bundle folds into a multi-folder when the edge budget
// grants one, and is kept (dropping it would be unsound) only as a
// degraded consumer bounding box when not.
func (p *partition) bundle(src, dst *Instr, kind Kind, exact bool) *Dep {
	if d := p.find(src, dst, kind); d != nil {
		return d
	}
	d := &Dep{Src: src, Dst: dst, Kind: kind}
	granted := p.b.opts.Budget.GrantEdges(1)
	switch {
	case exact && granted:
		mf := fold.NewMultiFolder(dst.Depth, src.Depth, fold.DefaultMaxPieces)
		mf.Obs = p.b.opts.Obs
		d.folder = mf
	case exact:
		d.Degraded = true
		d.box = &coordBox{}
	}
	p.addBundle(d)
	return d
}

// find returns the partition's bundle src -> dst of kind, or nil.
func (p *partition) find(src, dst *Instr, kind Kind) *Dep {
	if dst.ID < len(p.byDst) {
		for _, d := range p.byDst[dst.ID] {
			if d.Src == src && d.Kind == kind {
				return d
			}
		}
	}
	return nil
}

// addBundle lists a new bundle on its consumer and in creation order.
func (p *partition) addBundle(d *Dep) {
	if id := d.Dst.ID; id >= len(p.byDst) {
		p.byDst = append(p.byDst, make([][]*Dep, id+1-len(p.byDst))...)
	}
	p.byDst[d.Dst.ID] = append(p.byDst[d.Dst.ID], d)
	p.allDeps = append(p.allDeps, d)
}

func (p *partition) addDep(src *Instr, srcCoords []int64, dst *Instr, dstCoords []int64, kind Kind) {
	d := p.bundle(src, dst, kind, true)
	d.Count++
	p.points++
	if d.folder != nil {
		d.folder.Add(dstCoords, srcCoords)
	} else {
		d.box.extend(dstCoords)
	}
}
