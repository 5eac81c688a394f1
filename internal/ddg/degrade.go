// Range summaries and shadow-memory budget degradation.
//
// A partition holds exact last-writer/last-reader records per word
// while it can.  A record is missing for one of three reasons: the
// address was never touched, its record was released at an epoch
// boundary (epoch.go), or the budget refused it.  For the last two the
// partition keeps, per 2^rangeShift-word range, a summary: the writing
// and reading instruction contexts whose records it does not hold, each
// with a bounding box of their iteration coordinates.
//
// One rule in resolve (partition.go) covers all three: when an event's
// dependence counterpart has no exact record, the event pulls one point
// per entry of its range's summary (writers for flow and output,
// readers for anti) into a bounding-box piece with no affine function
// — the shape the scheduler already treats as a star ("all
// directions") dependence.  Entries from other addresses of the range
// over-match, so the pull is a superset of the edges the missing
// record would have given: summaries can only ADD dependences relative
// to the exact graph, never drop one, so transformations stay legal.
//
// When the budget refuses an event's own record, the event joins its
// range's summary and marks it degraded.  A bundle that takes a point
// from a degraded summary is marked Degraded, and the degraded
// summaries are the graph's degraded regions.  Budget grants race
// between partitions of the parallel engine, so a degraded parallel run
// may differ from the sequential one; both are supersets of the exact
// graph.
//
// Per-address discipline: a live record stays exact (set() reuses its
// memory).  An address without one asks the budget again at its next
// touch, so once a streaming release has lowered the budget's count
// below its limit a record is granted and exact again; its missing
// counterparts still come from the summary.
package ddg

import (
	"slices"
	"sort"

	"polyprof/internal/budget"
	"polyprof/internal/faultinject"
	"polyprof/internal/fold"
	"polyprof/internal/poly"
)

// rangeShift sets the summary granularity: addresses are grouped into
// 256-word ranges.  Partitions own whole ranges, which keeps their
// summaries disjoint.
const rangeShift = 8

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

// sumEntry is one instruction's box inside a range summary.
type sumEntry struct {
	instr *Instr
	box   coordBox
}

// rangeSummary stands in for the records a partition does not hold in
// one address range.  writers and readers are kept in Instr.ID order as
// they are inserted, the order pulls take them in.
type rangeSummary struct {
	writers, readers []sumEntry
	// refused counts the events whose own record the budget refused;
	// nonzero marks the summary degraded.
	refused uint64
}

// entryBox returns instr's box in tab, inserting an empty one in ID
// order when instr has none.
func entryBox(tab *[]sumEntry, instr *Instr) *coordBox {
	i := sort.Search(len(*tab), func(k int) bool { return (*tab)[k].instr.ID >= instr.ID })
	if i == len(*tab) || (*tab)[i].instr != instr {
		*tab = slices.Insert(*tab, i, sumEntry{instr: instr})
	}
	return &(*tab)[i].box
}

// add folds one (instr, coords) observation into the summary.
func (s *rangeSummary) add(instr *Instr, coords []int64, write bool) {
	tab := &s.readers
	if write {
		tab = &s.writers
	}
	entryBox(tab, instr).extend(coords)
}

// summary returns the summary of addr's range, creating it.
func (p *partition) summary(addr int64) *rangeSummary {
	s := p.summ[addr>>rangeShift]
	if s == nil {
		s = &rangeSummary{}
		p.summ[addr>>rangeShift] = s
	}
	return s
}

// pull adds one summary point per entry of the event's range summary
// for each counterpart the exact tables lack: needW for the last writer
// (flow for a read, output for a write), needR for the last reader
// (anti, writes only).
func (p *partition) pull(e *Event, out *Points, ev int32, needW, needR bool) {
	s := p.summ[e.Addr>>rangeShift]
	if s == nil {
		return
	}
	deg := s.refused > 0
	take := func(tab []sumEntry, kind Kind) {
		for i := range tab {
			if out != nil {
				out.List = append(out.List, Point{Ev: ev, Src: tab[i].instr, Kind: kind, Summary: true, Degraded: deg})
			} else {
				p.addSummaryDep(tab[i].instr, e.Instr, kind, e.Coords, deg)
			}
		}
	}
	if needW {
		kind := FlowMem
		if e.Write {
			kind = Output
		}
		take(s.writers, kind)
	}
	if needR {
		take(s.readers, Anti)
	}
}

// addSummaryDep merges one summary point: a bounding-box piece in
// consumer coordinates, which marks its bundle Degraded when it came
// from a degraded summary.
func (p *partition) addSummaryDep(src, dst *Instr, kind Kind, dstCoords []int64, degraded bool) {
	d := p.bundle(src, dst, kind, false)
	if d.box == nil {
		d.box = &coordBox{}
	}
	d.Degraded = d.Degraded || degraded
	d.Count++
	p.points++
	d.box.extend(dstCoords)
}

// Degradation names what was coarsened when a budget tripped mid-run;
// Graph.Degraded carries it into the report's degraded section.
type Degradation struct {
	// Budgets lists the tripped budget resources
	// (budget.ResourceShadowBytes, budget.ResourceDDGEdges).
	Budgets []string `json:"budgets"`
	// Regions are the address ranges of the degraded summaries,
	// merged and annotated with the overlapping global arrays.
	Regions []DegradedRegion `json:"regions,omitempty"`
	// CoarseDeps counts dependence bundles carrying an
	// over-approximated piece.
	CoarseDeps int `json:"coarse_deps"`
	// CoarseEvents counts the dynamic memory events whose own shadow
	// record the budget refused, each folded into its range's summary.
	CoarseEvents uint64 `json:"coarse_events"`
}

// DegradedRegion is one coarsened span of the flat memory.
type DegradedRegion struct {
	Lo      int64    `json:"lo"`
	Hi      int64    `json:"hi"`
	Globals []string `json:"globals,omitempty"`
}

// grantRec asks the budget for one more live record.  The fault point
// lets chaos tests inject errors, panics or exhaustion exactly here.
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
	return p.b.opts.Budget.GrantShadow(recBytes(dim))
}

// degradedKeys returns the range keys of every degraded summary in
// order, and the number of events refused into them.
func (b *Builder) degradedKeys() ([]int64, uint64) {
	var keys []int64
	var events uint64
	for _, p := range b.parts {
		for k, s := range p.summ {
			if s.refused > 0 {
				keys = append(keys, k)
				events += s.refused
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, events
}

// buildDegradation assembles the Graph's degraded section.
func (b *Builder) buildDegradation(g *Graph) {
	tripped := b.opts.Budget.Tripped()
	if tripped == nil {
		// Provisional clones drop the live budget; Clone pins its
		// tripped list so the provisional report still names it.
		tripped = b.pinTripped
	}
	keys, events := b.degradedKeys()
	if len(keys) == 0 && len(tripped) == 0 {
		return
	}
	deg := &Degradation{Budgets: tripped, CoarseEvents: events, Regions: b.degradedRegions(keys)}
	for _, d := range g.Deps {
		if d.Degraded {
			deg.CoarseDeps++
		}
	}
	g.Degraded = deg
}

// degradedRegions merges the sorted range keys into address regions
// and names the global arrays they overlap.
func (b *Builder) degradedRegions(keys []int64) []DegradedRegion {
	var out []DegradedRegion
	for _, k := range keys {
		lo := k << rangeShift
		hi := lo + (1 << rangeShift) - 1
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
