package fold

import (
	"fmt"

	"polyprof/internal/faultinject"
	"polyprof/internal/obs"
	"polyprof/internal/poly"
)

// finishFault injects at stream folding; error-shaped injections panic
// here and are converted back to errors by the fold-finish stage
// recovery in core.
var finishFault = faultinject.Point("fold.finish")

// Piece is one folded element: an iteration-domain polyhedron plus, when
// it could be fitted, an affine function mapping domain points to the
// stream's labels (produced values, addresses, or producer
// coordinates).
type Piece struct {
	Dom *poly.Poly
	// Fn maps domain coordinates to labels; nil when the labels were
	// not affine.
	Fn *poly.Map
	// Exact is true when Dom describes exactly the observed points;
	// false for bounding-box over-approximations.
	Exact bool
	// Points is the number of observed (non-duplicate) points.
	Points uint64
}

// String renders the piece for reports.
func (p Piece) String() string {
	s := p.Dom.String()
	if p.Fn != nil {
		s += " -> " + p.Fn.String()
	}
	if !p.Exact {
		s += " (approx)"
	}
	return s
}

// levelState tracks run recognition at one nesting depth.
type levelState struct {
	groupFirst int64 // first value of the current run
	prevVal    int64 // last value seen in the current run
	holes      bool  // irregular steps were observed inside a run
	stride     int64 // detected constant step (0 until established)
	loFit      *Fitter
	hiFit      *Fitter
}

// Folder incrementally folds one stream of (coords, label) points that
// arrive in lexicographic coordinate order.  Memory use is O(dim²)
// regardless of stream length: each level keeps only its current run
// and two incremental affine fitters for the run bounds.
type Folder struct {
	dim    int
	labelW int

	labelFit []*Fitter
	levels   []levelState

	prev    []int64
	minBox  []int64
	maxBox  []int64
	started bool

	points uint64 // distinct points
	total  uint64 // including duplicates
	exact  bool
	lexOK  bool

	// DetectStrides enables the lattice extension: runs advancing by a
	// constant step > 1 fold exactly into a strided domain instead of
	// degrading to a bounding box.  The paper lists lattices as an
	// unsupported case (Sec. 8); polyprof implements them and the
	// ablation benchmark measures the difference.  On by default.
	DetectStrides bool
	labelDup      bool // duplicate coords carried different labels
	lastLbl       []int64
	// verdicts holds the label fitters' verdicts on the point
	// checkLabels last accepted, for addChecked.
	verdicts []verdict

	// Small-stream fast path: the first few points are buffered without
	// touching the run recognizer or the affine fitters.  Most
	// dependence streams are tiny (see the fold.stream.points
	// histogram); a single-distinct-point stream finishes directly with
	// constant bounds, and anything larger replays the buffer through
	// the full recognizer with identical results.
	buffering     bool
	buf           []bufPoint
	bufSameCoords bool // every buffered point shares buf[0]'s coords
	bufSameAll    bool // ... and buf[0]'s label too

	// Obs is the span-context fold-outcome metrics publish into; the
	// zero Scope targets the process-wide default registry.
	Obs obs.Scope

	g guard
}

// NewFolder creates a folder for dim-dimensional coordinates and
// labelW-wide labels (0 for pure domain folding).
func NewFolder(dim, labelW int) *Folder {
	f := &Folder{
		dim:    dim,
		labelW: labelW,
		levels: make([]levelState, dim),
		prev:   make([]int64, dim),
		minBox: make([]int64, dim),
		maxBox: make([]int64, dim),
		exact:  true,
		lexOK:  true,
	}
	f.DetectStrides = true
	f.labelFit = make([]*Fitter, labelW)
	for i := range f.labelFit {
		f.labelFit[i] = NewFitter(dim)
	}
	if labelW > 0 {
		f.lastLbl = make([]int64, labelW)
	}
	f.buffering = true
	f.bufSameCoords = true
	f.bufSameAll = true
	return f
}

// smallStreamThreshold is how many Add calls the fast path buffers
// before falling back to the incremental recognizer.
const smallStreamThreshold = 8

// bufPoint is one buffered Add call (slices copied; callers reuse
// their buffers).
type bufPoint struct {
	coords, label []int64
}

// Dim returns the domain dimensionality.
func (f *Folder) Dim() int { return f.dim }

// Points returns the number of distinct points folded so far.
func (f *Folder) Points() uint64 {
	if f.buffering {
		return f.bufDistinct()
	}
	return f.points
}

// bufDistinct counts distinct points in the buffer the same way the
// recognizer does: a point is new when it differs from its predecessor.
func (f *Folder) bufDistinct() uint64 {
	var n uint64
	for i, p := range f.buf {
		if i == 0 || !equalCoords(p.coords, f.buf[i-1].coords) {
			n++
		}
	}
	return n
}

func equalCoords(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// materialize replays the buffered points through the incremental
// recognizer, leaving the folder in exactly the state a non-buffered
// sequence of Add calls would have produced.
func (f *Folder) materialize() {
	if !f.buffering {
		return
	}
	f.buffering = false
	buf := f.buf
	f.buf = nil
	for _, p := range buf {
		f.add(p.coords, p.label, nil)
	}
}

// Add feeds one point.  label must have the folder's label width.
func (f *Folder) Add(coords []int64, label []int64) {
	if ownershipChecks.Load() {
		f.g.enter("Folder.Add")
		defer f.g.leave()
	}
	if f.buffering {
		if len(f.buf) < smallStreamThreshold {
			bp := bufPoint{coords: append([]int64(nil), coords...)}
			if len(label) > 0 {
				bp.label = append([]int64(nil), label...)
			}
			if len(f.buf) > 0 {
				if !equalCoords(coords, f.buf[0].coords) {
					f.bufSameCoords = false
					f.bufSameAll = false
				} else if !equalCoords(bp.label, f.buf[0].label) {
					f.bufSameAll = false
				}
			}
			f.buf = append(f.buf, bp)
			return
		}
		f.materialize()
	}
	f.add(coords, label, nil)
}

// add is the incremental recognizer behind Add.  verdicts, when
// non-nil, are the label fitters' verdicts on this point (see
// checkLabels); nil lets each fitter classify its label itself.
func (f *Folder) add(coords []int64, label []int64, verdicts []verdict) {
	f.total++
	for i, fit := range f.labelFit {
		if verdicts != nil {
			fit.add(coords, label[i], verdicts[i])
		} else {
			fit.Add(coords, label[i])
		}
	}
	if !f.started {
		f.started = true
		f.points = 1
		copy(f.prev, coords)
		copy(f.minBox, coords)
		copy(f.maxBox, coords)
		for k := 0; k < f.dim; k++ {
			f.levels[k] = levelState{groupFirst: coords[k], prevVal: coords[k]}
		}
		copy(f.lastLbl, label)
		return
	}

	// Locate the outermost changed coordinate.
	k := 0
	for ; k < f.dim; k++ {
		if coords[k] != f.prev[k] {
			break
		}
	}
	if k == f.dim {
		// Exact duplicate of the previous point (several dependence
		// events can share a consumer instance).  Domain structure is
		// unaffected.
		for i := range label {
			if label[i] != f.lastLbl[i] {
				f.labelDup = true
			}
		}
		return
	}
	f.points++
	if coords[k] < f.prev[k] {
		// The stream restarted; the exact recognizer only handles
		// lexicographically increasing streams.
		f.lexOK = false
		f.exact = false
	}

	// Close the runs of all deeper levels against the old prefix.
	for j := f.dim - 1; j > k; j-- {
		f.closeRun(j)
		f.levels[j].groupFirst = coords[j]
		f.levels[j].prevVal = coords[j]
	}
	// Advance the run at level k: dense (+1) or a constant stride.
	lv := &f.levels[k]
	diff := coords[k] - f.prev[k]
	switch {
	case diff == 1:
		if lv.stride > 1 {
			lv.holes = true
			f.exact = false
		} else {
			lv.stride = 1
		}
	case f.DetectStrides && diff > 1 && (lv.stride == 0 || lv.stride == diff):
		lv.stride = diff
	default:
		lv.holes = true
		f.exact = false
	}
	lv.prevVal = coords[k]

	copy(f.prev, coords)
	for i, c := range coords {
		if c < f.minBox[i] {
			f.minBox[i] = c
		}
		if c > f.maxBox[i] {
			f.maxBox[i] = c
		}
	}
	copy(f.lastLbl, label)
}

// closeRun records the completed run of level j (bounds as a function
// of the outer prefix f.prev[0:j]).
func (f *Folder) closeRun(j int) {
	lv := &f.levels[j]
	if lv.loFit == nil {
		lv.loFit = NewFitter(j)
		lv.hiFit = NewFitter(j)
	}
	prefix := f.prev[:j]
	if !lv.loFit.Add(prefix, lv.groupFirst) {
		f.exact = false
	}
	if !lv.hiFit.Add(prefix, lv.prevVal) {
		f.exact = false
	}
}

// Finish closes all open runs and returns the folded piece.  Returns a
// zero-point piece for empty streams.
func (f *Folder) Finish() Piece {
	if ownershipChecks.Load() {
		f.g.enter("Folder.Finish")
		defer f.g.leave()
	}
	finishFault.HitPanic()
	if f.buffering {
		if p, ok := f.finishSmall(); ok {
			return p
		}
		f.materialize()
	}
	if !f.started {
		f.noteFinish(Piece{Exact: true})
		return Piece{Dom: poly.NewPoly(f.dim), Exact: true}
	}
	for j := f.dim - 1; j >= 0; j-- {
		f.closeRun(j)
	}

	var fn *poly.Map
	if !f.labelDup {
		m := poly.NewMap(f.dim, f.labelW)
		ok := true
		for i, fit := range f.labelFit {
			e, solved := fit.Solve()
			if !solved {
				ok = false
				break
			}
			m.Rows[i] = e
		}
		if ok && f.labelW > 0 {
			fn = &m
		}
	}

	if f.exact {
		dom := poly.NewPoly(f.dim)
		good := true
		for k := 0; k < f.dim; k++ {
			lv := &f.levels[k]
			lo, okLo := lv.loFit.Solve()
			hi, okHi := lv.hiFit.Solve()
			if !okLo || !okHi {
				good = false
				break
			}
			loE := embed(lo, f.dim)
			dom.AddLowerExpr(k, loE)
			dom.AddUpperExpr(k, embed(hi, f.dim))
			if lv.stride > 1 {
				// Lattice extension: runs advanced by a constant step,
				// anchored at the (affine) lower bound.
				dom.AddStride(k, lv.stride, loE)
			}
		}
		if good {
			p := Piece{Dom: dom, Fn: fn, Exact: true, Points: f.points}
			f.noteFinish(p)
			return p
		}
	}

	// Over-approximation: the bounding box of every observed point.
	dom := poly.NewPoly(f.dim)
	dom.Approx = true
	for k := 0; k < f.dim; k++ {
		dom.AddRange(k, f.minBox[k], f.maxBox[k])
	}
	p := Piece{Dom: dom, Fn: fn, Exact: false, Points: f.points}
	f.noteFinish(p)
	return p
}

// finishSmall resolves the buffered stream directly when it never left
// its first point: the domain is the single-point box {c} and every
// label function is the constant the point carried — exactly what the
// fitters would solve to from one sample (the elimination pivots on the
// constant column first), without ever allocating them.  Streams with
// two or more distinct points fall back to the recognizer.
func (f *Folder) finishSmall() (Piece, bool) {
	if len(f.buf) == 0 {
		f.noteFinish(Piece{Exact: true})
		return Piece{Dom: poly.NewPoly(f.dim), Exact: true}, true
	}
	if !f.bufSameCoords {
		return Piece{}, false
	}
	first := f.buf[0]
	dom := poly.NewPoly(f.dim)
	for k := 0; k < f.dim; k++ {
		e := poly.NewExpr(f.dim)
		e.K = first.coords[k]
		dom.AddLowerExpr(k, e)
		dom.AddUpperExpr(k, e)
	}
	var fn *poly.Map
	if f.bufSameAll && f.labelW > 0 {
		m := poly.NewMap(f.dim, f.labelW)
		for i := range m.Rows {
			e := poly.NewExpr(f.dim)
			e.K = first.label[i]
			m.Rows[i] = e
		}
		fn = &m
	}
	p := Piece{Dom: dom, Fn: fn, Exact: true, Points: 1}
	f.noteFinish(p)
	return p, true
}

// noteFinish publishes fold-outcome metrics: how many streams folded,
// whether each came out exact-affine or as a bounding-box
// over-approximation, how many fitters left the int64 path and how many
// samples ran elimination.  Called once per stream (at Finish), never
// on the per-point path.
func (f *Folder) noteFinish(p Piece) {
	if !f.Obs.Enabled() {
		return
	}
	f.Obs.Add("fold.streams", 1)
	if p.Exact {
		f.Obs.Add("fold.streams.exact", 1)
	} else {
		f.Obs.Add("fold.streams.approx", 1)
	}
	f.Obs.Observe("fold.stream.points", p.Points)
	wide, elims := f.fitterCounts()
	f.Obs.Add("fold.fitters.wide", wide)
	f.Obs.Add("fold.fitter.eliminations", elims)
}

// fitterCounts counts the folder's fitters that promoted themselves to
// big.Rat rows, and the samples its fitters eliminated.
func (f *Folder) fitterCounts() (wide, eliminations uint64) {
	note := func(fit *Fitter) {
		if fit.wide {
			wide++
		}
		eliminations += uint64(fit.eliminations)
	}
	for _, fit := range f.labelFit {
		note(fit)
	}
	for _, lv := range f.levels {
		if lv.loFit != nil {
			note(lv.loFit)
			note(lv.hiFit)
		}
	}
	return wide, eliminations
}

// embed widens an expression over the first k variables to dim
// variables.
func embed(e poly.Expr, dim int) poly.Expr {
	if e.Dim() == dim {
		return e
	}
	w := poly.NewExpr(dim)
	copy(w.C, e.C)
	w.K = e.K
	return w
}

// Describe summarizes the folder state for diagnostics.
func (f *Folder) Describe() string {
	return fmt.Sprintf("folder(dim=%d points=%d exact=%v lex=%v)", f.dim, f.Points(), f.exact, f.lexOK)
}
