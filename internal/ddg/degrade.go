// Shadow-memory budget degradation.  When the budget denies shadow
// bytes, the builder stops allocating exact last-writer/last-reader
// records for the denied addresses and instead summarizes whole
// address ranges coarsely: per 2^coarseRangeShift-word range it keeps
// the set of writing and reading instruction contexts with a bounding
// box of their iteration coordinates.  At Finish the ranges pair into
// over-approximated dependence bundles (every writer before every
// reader and writer of the same range) whose pieces carry no affine
// function — exactly the shape the scheduler already treats as a
// star ("all directions") dependence.  Degradation is therefore sound
// in the paper's direction: it can only ADD dependences relative to
// the exact graph, never drop one, so transformations stay legal.
//
// Budget grants race between partitions of the parallel engine, so a
// degraded parallel run is a superset of the sequential result rather
// than bit-identical to it.
//
// Per-address discipline: a record that went live while the budget
// allowed stays exact forever (set() reuses its memory), and an
// address denied at first touch stays coarse forever (grants are
// monotone).  An event is noted coarsely exactly when one of its
// dependence counterparts lacks an exact record, which makes the
// range pairing a superset of the missing edges — see the chaos and
// superset tests.
package ddg

import (
	"sort"

	"polyprof/internal/budget"
	"polyprof/internal/faultinject"
	"polyprof/internal/fold"
	"polyprof/internal/poly"
)

// coarseRangeShift sets the coarse summary granularity: addresses are
// grouped into 256-word ranges.  Partitions own whole ranges, which
// keeps their coarse and stale summaries disjoint.
const coarseRangeShift = 8

// shadowFault injects at the shadow-memory accounting path.
var shadowFault = faultinject.Point("ddg.shadow.insert")

// recBytes approximates the cost of one live writer record: the
// record struct plus its retained coordinate slice.
func recBytes(dim int) uint64 { return 32 + 8*uint64(dim) }

// baseShadowBytes is the fixed cost of the two per-word record tables.
func baseShadowBytes(memWords int64) uint64 { return uint64(memWords) * 2 * 32 }

// coordBox is a bounding box over iteration-coordinate vectors.
type coordBox struct {
	lo, hi []int64
	n      uint64 // events folded into the box
}

func (c *coordBox) extend(coords []int64) {
	c.n++
	if c.lo == nil {
		c.lo = append([]int64(nil), coords...)
		c.hi = append([]int64(nil), coords...)
		return
	}
	for i, v := range coords {
		if i >= len(c.lo) {
			break
		}
		if v < c.lo[i] {
			c.lo[i] = v
		}
		if v > c.hi[i] {
			c.hi[i] = v
		}
	}
}

func (c *coordBox) union(o *coordBox) {
	c.n += o.n
	if c.lo == nil {
		c.lo = append([]int64(nil), o.lo...)
		c.hi = append([]int64(nil), o.hi...)
		return
	}
	for i := range c.lo {
		if i >= len(o.lo) {
			break
		}
		if o.lo[i] < c.lo[i] {
			c.lo[i] = o.lo[i]
		}
		if o.hi[i] > c.hi[i] {
			c.hi[i] = o.hi[i]
		}
	}
}

// piece renders the box as an over-approximated dependence piece: an
// Approx domain with no affine producer function, which sched.analyze
// maps to a star dependence (all directions assumed).
func (c *coordBox) piece() fold.Piece {
	dom := poly.NewPoly(len(c.lo))
	dom.Approx = true
	for k := range c.lo {
		dom.AddRange(k, c.lo[k], c.hi[k])
	}
	return fold.Piece{Dom: dom, Exact: false, Points: c.n}
}

// coarseRange summarizes one address range after degradation.
type coarseRange struct {
	writers map[*Instr]*coordBox
	readers map[*Instr]*coordBox
}

// coarseState exists only after the shadow budget tripped.
type coarseState struct {
	ranges map[int64]*coarseRange
	events uint64
}

// Degradation names what was coarsened when a budget tripped mid-run;
// Graph.Degraded carries it into the report's degraded section.
type Degradation struct {
	// Budgets lists the tripped budget resources
	// (budget.ResourceShadowBytes, budget.ResourceDDGEdges).
	Budgets []string `json:"budgets"`
	// Regions are the coarsened address ranges, merged and annotated
	// with the overlapping global arrays.
	Regions []DegradedRegion `json:"regions,omitempty"`
	// CoarseDeps counts dependence bundles carrying an
	// over-approximated piece.
	CoarseDeps int `json:"coarse_deps"`
	// CoarseEvents counts dynamic memory events routed through coarse
	// tracking.
	CoarseEvents uint64 `json:"coarse_events"`
}

// DegradedRegion is one coarsened span of the flat memory.
type DegradedRegion struct {
	Lo      int64    `json:"lo"`
	Hi      int64    `json:"hi"`
	Globals []string `json:"globals,omitempty"`
}

// trip switches the partition into coarse mode (idempotent).
func (p *partition) trip() {
	if p.coarse == nil {
		p.coarse = &coarseState{ranges: map[int64]*coarseRange{}}
	}
}

// grantRec asks the budget for one more live record; a denial flips
// the partition into coarse mode.  The fault point lets chaos tests
// inject errors, panics or exhaustion exactly here.
func (p *partition) grantRec(dim int) bool {
	if err := p.b.insert.Hit(); err != nil {
		if be, ok := budget.AsError(err); ok && be.Resource == budget.ResourceShadowBytes {
			// Injected shadow exhaustion degrades like the real thing.
			return false
		}
		if p.faultErr == nil {
			p.faultErr = err
		}
	}
	if p.b.opts.Budget.GrantShadow(recBytes(dim)) {
		return true
	}
	p.trip()
	return false
}

// addRange folds one (instr, coords) observation into the writer or
// reader table of addr's range in ranges: the shape shared by coarse
// and stale summaries.
func addRange(ranges map[int64]*coarseRange, addr int64, instr *Instr, coords []int64, write bool) {
	key := addr >> coarseRangeShift
	rg := ranges[key]
	if rg == nil {
		rg = &coarseRange{writers: map[*Instr]*coordBox{}, readers: map[*Instr]*coordBox{}}
		ranges[key] = rg
	}
	tab := rg.readers
	if write {
		tab = rg.writers
	}
	box := tab[instr]
	if box == nil {
		box = &coordBox{}
		tab[instr] = box
	}
	box.extend(coords)
}

// noteCoarse records one denied-counterpart event in its range
// summary.
func (p *partition) noteCoarse(e *Event) {
	p.trip()
	p.coarse.events++
	addRange(p.coarse.ranges, e.Addr, e.Instr, e.Coords, e.Write)
}

// coarseEvent handles one memory event after the shadow budget
// tripped.  Live records keep exact tracking (set() reuses their
// memory, so no new bytes are consumed); events whose dependence
// counterpart lacks a record are noted in the range summary.
func (p *partition) coarseEvent(e *Event, out *Points, ev int32) {
	b := p.b
	w := &b.writers[e.Addr]
	r := &b.readers[e.Addr]
	note := false
	if e.Write {
		if w.instr != nil {
			p.emit(out, ev, w.instr, w.coords, e, Output)
			w.set(e.Instr, e.Coords)
		} else {
			// Readers of this address can only be coarse too: the
			// range pairing needs this writer.
			note = true
		}
		if r.instr != nil {
			p.emit(out, ev, r.instr, r.coords, e, Anti)
		} else {
			note = true
		}
	} else {
		if w.instr != nil {
			p.emit(out, ev, w.instr, w.coords, e, FlowMem)
		} else {
			note = true
		}
		if r.instr != nil {
			r.set(e.Instr, e.Coords)
		} else {
			note = true
		}
	}
	if note {
		p.noteCoarse(e)
	}
}

// coarseRanges unions the partitions' coarse summaries (their range
// keys are disjoint) and returns them with the keys in order; nil keys
// and ranges when no partition degraded.
func (b *Builder) coarseRanges() ([]int64, map[int64]*coarseRange) {
	var ranges map[int64]*coarseRange
	for _, p := range b.parts {
		if p.coarse == nil {
			continue
		}
		if ranges == nil {
			ranges = map[int64]*coarseRange{}
		}
		for k, rg := range p.coarse.ranges {
			ranges[k] = rg
		}
	}
	keys := make([]int64, 0, len(ranges))
	for k := range ranges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, ranges
}

// addCoarseDep merges one range-pairing edge into the owning
// partition's bundle.  consumerBox is the consumer's coordinate box
// (the dependence piece domain lives in consumer coordinates).
func (b *Builder) addCoarseDep(src, dst *Instr, kind Kind, consumerBox *coordBox) {
	d := b.parts[ownerOfDep(src.ID, dst.ID, kind, len(b.parts))].boxBundle(src, dst, kind)
	d.Degraded = true
	d.box.union(consumerBox)
}

// finishCoarse pairs every coarse range into over-approximated
// dependence bundles: flow = writers x readers, anti = readers x
// writers, output = all ordered writer pairs (self included).  The
// result is a provable superset of the dependences exact tracking
// would have recorded for those addresses.
func (b *Builder) finishCoarse() {
	keys, ranges := b.coarseRanges()
	for _, k := range keys {
		rg := ranges[k]
		writers := sortedByID(rg.writers)
		readers := sortedByID(rg.readers)
		for _, w := range writers {
			for _, r := range readers {
				b.addCoarseDep(w, r, FlowMem, rg.readers[r])
				b.addCoarseDep(r, w, Anti, rg.writers[w])
			}
			for _, w2 := range writers {
				b.addCoarseDep(w, w2, Output, rg.writers[w2])
			}
		}
	}
}

func sortedByID(m map[*Instr]*coordBox) []*Instr {
	out := make([]*Instr, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// buildDegradation assembles the Graph's degraded section.
func (b *Builder) buildDegradation(g *Graph) {
	tripped := b.opts.Budget.Tripped()
	if tripped == nil {
		// Provisional clones drop the live budget; Clone pins its
		// tripped list so the provisional report still names it.
		tripped = b.pinTripped
	}
	keys, _ := b.coarseRanges()
	coarse := false
	var events uint64
	for _, p := range b.parts {
		if p.coarse != nil {
			coarse = true
			events += p.coarse.events
		}
	}
	if !coarse && len(tripped) == 0 {
		return
	}
	deg := &Degradation{Budgets: tripped}
	if coarse {
		deg.CoarseEvents = events
		deg.Regions = b.coarseRegions(keys)
	}
	for _, d := range g.Deps {
		if d.Degraded {
			deg.CoarseDeps++
		}
	}
	g.Degraded = deg
}

// coarseRegions merges the sorted coarse range keys into address
// regions and names the global arrays they overlap.
func (b *Builder) coarseRegions(keys []int64) []DegradedRegion {
	var out []DegradedRegion
	for _, k := range keys {
		lo := k << coarseRangeShift
		hi := lo + (1 << coarseRangeShift) - 1
		if hi >= b.prog.MemWords {
			hi = b.prog.MemWords - 1
		}
		if n := len(out); n > 0 && out[n-1].Hi+1 >= lo {
			out[n-1].Hi = hi
			continue
		}
		out = append(out, DegradedRegion{Lo: lo, Hi: hi})
	}
	for i := range out {
		r := &out[i]
		var names []string
		for name, gl := range b.prog.Globals {
			if gl.Base <= r.Hi && gl.Base+gl.Size > r.Lo {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		r.Globals = names
	}
	return out
}
