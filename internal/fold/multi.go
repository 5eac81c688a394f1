package fold

import "polyprof/internal/obs"

// Check reports whether the sample is consistent with the fitter's
// current state without changing what it decides: an already-determined
// function must evaluate to y; an undetermined basis must not reduce the
// sample to a contradiction (rank extension is consistent).  The kernel
// test decides it (see classify), which may build and cache the test;
// only when the test is unavailable does Check eliminate, and then
// int64 overflow promotes the fitter to big.Rat rows.
func (f *Fitter) Check(x []int64, y int64) bool {
	return f.checkVerdict(x, y) != contradicts
}

// checkVerdict is Check's decision in the form add takes it: undecided
// means the sample is consistent but only elimination, which add
// repeats on the basis, can tell whether it raises the rank.
func (f *Fitter) checkVerdict(x []int64, y int64) verdict {
	v := f.check(x, y)
	if v != undecided {
		return v
	}
	f.eliminations++
	consistent := false
	if !f.wide {
		if row, ok := f.reduce(x, y); ok {
			consistent = f.leadCol(row) != -1 || row[f.m+1] == 0
		} else {
			f.promote()
		}
	}
	if f.wide {
		row := f.sampleRat(x, y)
		f.reduceWide(row)
		consistent = f.leadColWide(row) != -1 || row[f.m+1].Sign() == 0
	}
	if !consistent {
		return contradicts
	}
	return undecided
}

// checkLabels tests a whole label vector against the folder's fitters.
// When the fitters decide it, their verdicts stay in f.verdicts for
// addChecked, so an accepted point is classified once.
func (f *Folder) checkLabels(coords, label []int64) bool {
	if f.buffering {
		// Fast-path folders have no fitters yet.  A point identical to
		// a uniform buffer is trivially consistent (one repeated sample
		// constrains nothing it would contradict); anything else forces
		// the fitters into existence.
		if f.bufSameAll && len(f.buf) > 0 &&
			equalCoords(coords, f.buf[0].coords) && equalCoords(label, f.buf[0].label) {
			return true
		}
		f.materialize()
	}
	if f.verdicts == nil {
		f.verdicts = make([]verdict, len(f.labelFit))
	}
	for i, fit := range f.labelFit {
		v := fit.checkVerdict(coords, label[i])
		if v == contradicts {
			return false
		}
		f.verdicts[i] = v
	}
	return true
}

// addChecked is Add for a point checkLabels has just accepted: the
// fitters take the verdicts it computed instead of classifying the
// labels again.  A point the buffered fast path accepted has none and
// takes the plain Add.
func (f *Folder) addChecked(coords, label []int64) {
	if f.buffering {
		f.Add(coords, label)
		return
	}
	if ownershipChecks.Load() {
		f.g.enter("Folder.Add")
		defer f.g.leave()
	}
	f.add(coords, label, f.verdicts)
}

// MultiFolder folds one dependence stream into a *union* of pieces,
// each with its own affine label function — the general case of the
// paper's folding (Sec. 5): dependencies of in-place stencils or
// boundary-clamped code are piecewise affine, and a single affine map
// cannot represent them.  Points are classified greedily against the
// existing pieces' fitters; unclassifiable points (beyond MaxPieces)
// fall into an over-approximated remainder piece with no map.
type MultiFolder struct {
	dim, labelW int
	maxPieces   int

	pieces   []*Folder
	overflow *Folder // points no piece accepts; nil until needed
	points   uint64

	// Obs is the span-context fold metrics publish into; the zero
	// Scope targets the process-wide default registry.  Propagated to
	// every piece folder this multi-folder creates.
	Obs obs.Scope

	g guard
}

// DefaultMaxPieces bounds the union size per dependence.
const DefaultMaxPieces = 4

// NewMultiFolder creates a piecewise folder.
func NewMultiFolder(dim, labelW, maxPieces int) *MultiFolder {
	if maxPieces <= 0 {
		maxPieces = DefaultMaxPieces
	}
	return &MultiFolder{dim: dim, labelW: labelW, maxPieces: maxPieces}
}

// Points returns the number of points folded.
func (m *MultiFolder) Points() uint64 { return m.points }

// Add classifies and folds one point.
func (m *MultiFolder) Add(coords, label []int64) {
	if ownershipChecks.Load() {
		m.g.enter("MultiFolder.Add")
		defer m.g.leave()
	}
	m.points++
	for _, p := range m.pieces {
		if p.checkLabels(coords, label) {
			p.addChecked(coords, label)
			return
		}
	}
	if len(m.pieces) < m.maxPieces {
		p := NewFolder(m.dim, m.labelW)
		p.Obs = m.Obs
		p.Add(coords, label)
		m.pieces = append(m.pieces, p)
		return
	}
	if m.overflow == nil {
		m.overflow = NewFolder(m.dim, 0)
		m.overflow.Obs = m.Obs
	}
	m.overflow.Add(coords, nil)
}

// Finish returns the folded union.  Pieces other than the first are
// generally over-approximated boxes (their points arrive with holes),
// which is sound for dependence-distance bounds.
func (m *MultiFolder) Finish() []Piece {
	if ownershipChecks.Load() {
		m.g.enter("MultiFolder.Finish")
		defer m.g.leave()
	}
	var out []Piece
	for _, p := range m.pieces {
		out = append(out, p.Finish())
	}
	if m.overflow != nil {
		op := m.overflow.Finish()
		op.Fn = nil
		op.Exact = false
		out = append(out, op)
		m.Obs.Add("fold.multi.overflow", 1)
	}
	m.Obs.Observe("fold.multi.pieces", uint64(len(out)))
	return out
}
