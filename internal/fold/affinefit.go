// Package fold compresses the DDG's point streams into polyhedra with
// affine label functions — the paper's third stage (Sec. 5, detailed in
// the companion report [29]).  Folding is geometric and incremental:
// points arrive in lexicographic order (a property the IIV construction
// guarantees), each nesting level recognizes contiguous runs whose
// bounds are affine functions of the outer coordinates, and labels
// (produced values, addresses, producer coordinates) are fitted by
// exact incremental affine regression.  Streams that do not fold
// exactly degrade to bounding-box over-approximations instead of being
// dropped, which is what keeps whole-program analysis scalable.
package fold

import (
	"math"
	"math/big"
	"math/bits"

	"polyprof/internal/poly"
)

// Fitter incrementally decides whether a stream of samples (x, y) with
// x in Z^m lies on an affine function y = c·x + k, using exact Gaussian
// elimination.  Adding samples is cheap once the function is determined
// (integer evaluation); before that, each independent sample extends a
// reduced basis, and every other sample is decided by the basis's
// kernel test (see classify) without elimination.
//
// The basis is kept fraction-free in int64 rows: eliminating src from
// dst computes a·dst − b·src and divides the result by its gcd.  Every
// row is therefore a nonzero multiple of the rational row plain
// elimination would hold, so every decision — the pivot column, the
// 0 = nonzero contradiction, integrality — comes out the same.  Each
// multiply and subtract checks for overflow; the first that would leave
// the int64 range promotes the fitter, once, to exact big.Rat rows.
type Fitter struct {
	m      int
	failed bool

	// rows is the reduced basis of sample equations over the m+1
	// unknown coefficients (m variable coefficients plus the constant).
	// Each row has m+2 entries: the coefficient columns and the
	// right-hand side.  Rows are primitive (entries coprime) with a
	// positive pivot, and no entry is math.MinInt64, so negation and
	// absolute values never overflow.
	rows [][]int64
	// pivot[i] is the pivot column of rows[i] (of wideRows[i] once wide).
	pivot []int
	// scratch holds the sample row Add and Check reduce, so a sample
	// allocates nothing; basis rows are allocated only when rank grows.
	scratch []int64

	// kern caches the kernel test of the int64 basis (see classify):
	// kern[:m+1] is the scaled particular solution, and each further
	// m+1 entries are the null vector of one free column.  kernL is the
	// lcm of the pivots the test is scaled by, 0 while no test is
	// cached and −1 when building it overflowed; kernBound is m+1 times
	// the largest |entry|.  Built by the first sample that needs it and
	// dropped whenever the basis changes.
	kern      []int64
	kernL     int64
	kernBound uint64
	// eliminations counts the samples that ran elimination (published
	// as fold.fitter.eliminations when the stream finishes).
	eliminations int

	// wide is set once int64 arithmetic would have overflowed; the basis
	// then lives in wideRows as exact rationals and rows is nil.
	wide     bool
	wideRows [][]*big.Rat

	// solved is the integer affine function once determined ("decided"
	// the moment the basis reaches full rank or Solve is called).
	solved   *poly.Expr
	nSamples int
}

// NewFitter creates a fitter for x in Z^m.
func NewFitter(m int) *Fitter {
	return &Fitter{m: m}
}

// Failed reports whether some sample contradicted affinity (or an exact
// rational fit exists but is not integer).
func (f *Fitter) Failed() bool { return f.failed }

// Samples returns the number of samples fed.
func (f *Fitter) Samples() int { return f.nSamples }

// Add feeds one sample; returns false once the stream is known to be
// non-affine.
func (f *Fitter) Add(x []int64, y int64) bool {
	return f.add(x, y, f.check(x, y))
}

// check classifies a sample against the fitter's current state without
// changing what it decides: a failed fitter contradicts everything, a
// determined function is redundant with the samples it evaluates to and
// contradicts the others, and an undetermined basis asks the kernel
// test (see classify).
func (f *Fitter) check(x []int64, y int64) verdict {
	switch {
	case f.failed:
		return contradicts
	case f.solved != nil:
		if f.solved.Eval(x) == y {
			return redundant
		}
		return contradicts
	}
	return f.classify(x, y)
}

// add feeds one sample whose verdict check (or Check) has already
// computed against the current state: redundant samples only count,
// contradictions fail the fitter, and the rest eliminate.
func (f *Fitter) add(x []int64, y int64, v verdict) bool {
	if f.failed {
		return false
	}
	f.nSamples++
	switch v {
	case redundant:
		return true
	case contradicts:
		f.fail()
		return false
	}
	f.eliminations++
	if !f.wide {
		if row, ok := f.reduce(x, y); ok {
			f.absorb(row)
			return !f.failed
		}
		f.promote()
	}
	row := f.sampleRat(x, y)
	f.reduceWide(row)
	f.absorbWide(row)
	return !f.failed
}

// pivotOrder visits the constant column first so underdetermined
// streams solve to the "most constant" integral function (a stream that
// never varied a coordinate fits as a constant rather than as a
// fractional multiple of that coordinate).
func (f *Fitter) pivotOrder(i int) int {
	if i == 0 {
		return f.m
	}
	return i - 1
}

func (f *Fitter) fail() {
	f.failed = true
	f.rows, f.wideRows, f.pivot = nil, nil, nil
	f.solved = nil
	f.kern, f.kernL = nil, 0
}

// verdict is what the kernel test decides about one sample.
type verdict uint8

const (
	undecided   verdict = iota // no int64 test: eliminate
	extends                    // the sample raises the rank
	redundant                  // the basis already implies it
	contradicts                // 0 = nonzero: not affine
)

// classify decides a sample against an undetermined int64 basis by dot
// products instead of elimination.  With x̂ = [x, 1], eliminating the
// sample row [x̂ | y] against the reduced row-echelon basis leaves, in
// free column j, x̂[j] − Σ_i x̂[p_i]·R_i[j]/R_i[p_i] (no elimination step
// touches another row's pivot column), and on the right-hand side
// y − Σ_i x̂[p_i]·R_i[m+1]/R_i[p_i].  Scaled by L, the lcm of the pivots,
// these are n_j·x̂ and L·y − part·x̂ for the vectors buildKernel caches:
// the sample extends the rank when some n_j·x̂ ≠ 0, is redundant when
// part·x̂ = L·y, and contradicts the basis otherwise — exactly what
// elimination would find.  Wide fitters, a test that overflowed while
// building, and samples large enough that a dot product might overflow
// are undecided.
func (f *Fitter) classify(x []int64, y int64) verdict {
	if f.wide {
		return undecided
	}
	if len(f.pivot) == 0 {
		return extends // the constant column is free
	}
	if f.kernL == 0 {
		f.buildKernel()
	}
	if f.kernL < 0 {
		return undecided
	}
	// Every product, partial sum and L·y below is at most
	// kernBound·xmax in magnitude.
	xmax := max(absU(y), 1)
	for _, v := range x[:f.m] {
		xmax = max(xmax, absU(v))
	}
	if hi, lo := bits.Mul64(f.kernBound, xmax); hi != 0 || lo > math.MaxInt64 {
		return undecided
	}
	w := f.m + 1
	for k := w; k < len(f.kern); k += w {
		if dot(f.kern[k:k+w], x) != 0 {
			return extends
		}
	}
	if dot(f.kern[:w], x) == f.kernL*y {
		return redundant
	}
	return contradicts
}

// buildKernel caches the kernel test of the current int64 basis: with
// L the lcm of the pivots, part[p_i] = (L/R_i[p_i])·R_i[m+1], and for
// each free column j, n_j[j] = L and n_j[p_i] = −(L/R_i[p_i])·R_i[j].
// On overflow kernL is −1 and samples eliminate until the basis
// changes.
func (f *Fitter) buildKernel() {
	f.kernL = -1
	l := int64(1)
	for i, r := range f.rows {
		p := r[f.pivot[i]]
		var ok bool
		if l, ok = mul(l, p/int64(gcd(uint64(l), uint64(p)))); !ok {
			return
		}
	}
	f.kern = f.kern[:0]
	if !f.appendKernelRow(l, f.m+1) {
		return
	}
	for j := 0; j <= f.m; j++ {
		if !f.isPivot(j) && !f.appendKernelRow(l, j) {
			return
		}
	}
	var top uint64
	for _, v := range f.kern {
		top = max(top, absU(v))
	}
	bound, ok := mul(int64(top), int64(f.m+1))
	if !ok {
		return
	}
	f.kernL, f.kernBound = l, uint64(bound)
}

// appendKernelRow appends part (c = m+1) or the null vector of free
// column c, scaled by l; false on overflow.
func (f *Fitter) appendKernelRow(l int64, c int) bool {
	start := len(f.kern)
	f.kern = append(f.kern, make([]int64, f.m+1)...)
	v := f.kern[start:]
	sign := int64(1)
	if c <= f.m {
		v[c], sign = l, -1
	}
	for i, r := range f.rows {
		p := f.pivot[i]
		s, ok := mul(l/r[p], r[c])
		if !ok {
			return false
		}
		v[p] = sign * s
	}
	return true
}

func (f *Fitter) isPivot(j int) bool {
	for _, p := range f.pivot {
		if p == j {
			return true
		}
	}
	return false
}

// dot returns v·[x, 1] over the first len(v)−1 coordinates of x; the
// caller bounds the magnitudes so nothing overflows.
func dot(v, x []int64) int64 {
	n := len(v) - 1
	acc := v[n]
	for c, a := range v[:n] {
		acc += a * x[c]
	}
	return acc
}

// reduce builds the equation row [x..., 1 | y] in the scratch row and
// eliminates it against the basis.  ok is false when an entry would
// leave the int64 range; the basis is untouched either way.
func (f *Fitter) reduce(x []int64, y int64) (row []int64, ok bool) {
	if f.scratch == nil {
		f.scratch = make([]int64, f.m+2)
	}
	row = f.scratch
	for i := 0; i < f.m; i++ {
		if x[i] == math.MinInt64 {
			return nil, false
		}
		row[i] = x[i]
	}
	if y == math.MinInt64 {
		return nil, false
	}
	row[f.m] = 1
	row[f.m+1] = y
	for i, r := range f.rows {
		p := f.pivot[i]
		if row[p] != 0 && !combine(row, row, r, p) {
			return nil, false
		}
	}
	return row, true
}

// leadCol returns the pivot column of the reduced row (constant column
// preferred), or -1 when no coefficient column is nonzero.
func (f *Fitter) leadCol(row []int64) int {
	for i := 0; i <= f.m; i++ {
		if j := f.pivotOrder(i); row[j] != 0 {
			return j
		}
	}
	return -1
}

// absorb applies a reduced sample row: a contradiction fails the
// fitter, a vanished row is redundant, anything else extends the basis.
func (f *Fitter) absorb(row []int64) {
	lead := f.leadCol(row)
	if lead == -1 {
		if row[f.m+1] != 0 {
			// 0 = nonzero: inconsistent, not affine.
			f.fail()
		}
		// Otherwise the row vanished entirely: redundant sample.
		return
	}
	f.insert(row, lead)
	if len(f.pivot) == f.m+1 {
		// Full rank: the function is uniquely determined.
		f.trySolve()
	}
}

// insert adds a copy of the reduced row to the basis and back-eliminates
// it from existing rows to keep reduced row-echelon form.  Each existing
// row is rewritten only once its elimination succeeded, so on overflow
// the rows not yet visited still need exactly the elimination the wide
// path then performs.
func (f *Fitter) insert(row []int64, lead int) {
	f.kernL = 0
	nr := append([]int64(nil), row...)
	normalize(nr, lead)
	for _, r := range f.rows {
		if r[lead] == 0 {
			continue
		}
		if !combine(f.scratch, r, nr, lead) {
			f.promote()
			f.insertWide(ratRow(nr), lead)
			return
		}
		divContent(f.scratch) // basis rows stay primitive
		copy(r, f.scratch)
	}
	f.rows = append(f.rows, nr)
	f.pivot = append(f.pivot, lead)
}

// combine sets dst = a·r − b·src with a/b = src[p]/r[p] reduced, which
// zeroes column p.  src[p] is positive, so a is too and r's pivot keeps
// its sign.  When a > 1 the entries grew by a factor, so dst is divided
// by the gcd of its entries; with a = 1 (src's pivot divides r[p], the
// common case) that division is skipped.  dst may alias r.  ok is false
// on overflow, leaving dst partially written.
func combine(dst, r, src []int64, p int) bool {
	a, b := int64(1), r[p]
	if src[p] != 1 {
		g := int64(gcd(absU(r[p]), uint64(src[p])))
		a, b = src[p]/g, r[p]/g
	}
	for j := range dst {
		x := r[j]
		if a != 1 {
			var ok bool
			if x, ok = mul(a, x); !ok {
				return false
			}
		}
		v, ok := sub(x, b, src[j])
		if !ok {
			return false
		}
		dst[j] = v
	}
	if a != 1 {
		divContent(dst)
	}
	return true
}

// normalize makes the row primitive with a positive entry in column p.
func normalize(row []int64, p int) {
	divContent(row)
	if row[p] < 0 {
		for j := range row {
			row[j] = -row[j]
		}
	}
}

// divContent divides the row by the gcd of its entries.
func divContent(row []int64) {
	var g uint64
	for _, v := range row {
		if v != 0 {
			if g = gcd(g, absU(v)); g == 1 {
				return
			}
		}
	}
	if g > 1 {
		for j := range row {
			row[j] /= int64(g)
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func absU(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// sub returns x − b·y; ok is false when the product or the difference
// leaves (math.MinInt64, math.MaxInt64].
func sub(x, b, y int64) (int64, bool) {
	if y == 0 {
		return x, true
	}
	q, ok := mul(b, y)
	d := x - q
	if !ok || (x^q)&(x^d) < 0 || d == math.MinInt64 {
		return 0, false
	}
	return d, true
}

// mul returns a·b; ok is false when |a·b| exceeds math.MaxInt64.
func mul(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(absU(a), absU(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// promote moves the basis to exact rationals for the rest of the
// fitter's life.
func (f *Fitter) promote() {
	f.wide = true
	f.kern, f.kernL = nil, 0
	f.wideRows = make([][]*big.Rat, len(f.rows))
	for i, r := range f.rows {
		f.wideRows[i] = ratRow(r)
	}
	f.rows = nil
}

func ratRow(r []int64) []*big.Rat {
	row := make([]*big.Rat, len(r))
	for j, v := range r {
		row[j] = new(big.Rat).SetInt64(v)
	}
	return row
}

// sampleRat builds the rational equation row [x..., 1 | y].
func (f *Fitter) sampleRat(x []int64, y int64) []*big.Rat {
	row := make([]*big.Rat, f.m+2)
	for i := 0; i < f.m; i++ {
		row[i] = new(big.Rat).SetInt64(x[i])
	}
	row[f.m] = new(big.Rat).SetInt64(1)
	row[f.m+1] = new(big.Rat).SetInt64(y)
	return row
}

// reduceWide eliminates the rational row against the wide basis.
func (f *Fitter) reduceWide(row []*big.Rat) {
	for i, r := range f.wideRows {
		p := f.pivot[i]
		if row[p].Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Quo(row[p], r[p])
		for j := 0; j < len(row); j++ {
			row[j] = new(big.Rat).Sub(row[j], new(big.Rat).Mul(factor, r[j]))
		}
	}
}

// leadColWide is leadCol for rational rows.
func (f *Fitter) leadColWide(row []*big.Rat) int {
	for i := 0; i <= f.m; i++ {
		if j := f.pivotOrder(i); row[j].Sign() != 0 {
			return j
		}
	}
	return -1
}

// absorbWide is absorb for a reduced rational row.
func (f *Fitter) absorbWide(row []*big.Rat) {
	lead := f.leadColWide(row)
	if lead == -1 {
		if row[f.m+1].Sign() != 0 {
			f.fail()
		}
		return
	}
	f.insertWide(row, lead)
	if len(f.pivot) == f.m+1 {
		f.trySolve()
	}
}

// insertWide is insert for rational rows.
func (f *Fitter) insertWide(row []*big.Rat, lead int) {
	for _, r := range f.wideRows {
		if r[lead].Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Quo(r[lead], row[lead])
		for j := 0; j < len(r); j++ {
			r[j] = new(big.Rat).Sub(r[j], new(big.Rat).Mul(factor, row[j]))
		}
	}
	f.wideRows = append(f.wideRows, row)
	f.pivot = append(f.pivot, lead)
}

// trySolve extracts the unique solution and checks integrality.
func (f *Fitter) trySolve() {
	e, ok := f.solveExpr()
	if !ok {
		f.fail()
		return
	}
	f.solved = &e
	f.rows, f.wideRows, f.pivot = nil, nil, nil
	f.kern, f.kernL = nil, 0
}

// solveExpr solves the current (possibly underdetermined) system with
// free coefficients set to zero; returns false when the solution is not
// integral.  Rows are in reduced row-echelon form:
// r[p]*c_p + sum over free columns j of r[j]*c_j = rhs, so with free
// coefficients fixed at zero, c_p = rhs / r[p].
func (f *Fitter) solveExpr() (poly.Expr, bool) {
	if f.wide {
		return f.solveWide()
	}
	e := poly.NewExpr(f.m)
	for i, r := range f.rows {
		p, rhs := f.pivot[i], r[f.m+1]
		if rhs%r[p] != 0 {
			return poly.Expr{}, false
		}
		setCoeff(&e, f.m, p, rhs/r[p])
	}
	return e, true
}

// solveWide is solveExpr for rational rows.
func (f *Fitter) solveWide() (poly.Expr, bool) {
	e := poly.NewExpr(f.m)
	for i, r := range f.wideRows {
		c := new(big.Rat).Quo(r[f.m+1], r[f.pivot[i]])
		if !c.IsInt() {
			return poly.Expr{}, false
		}
		setCoeff(&e, f.m, f.pivot[i], c.Num().Int64())
	}
	return e, true
}

// setCoeff stores coefficient column p (column m is the constant).
func setCoeff(e *poly.Expr, m, p int, v int64) {
	if p == m {
		e.K = v
	} else {
		e.C[p] = v
	}
}

// Solve returns the fitted affine function.  For underdetermined
// streams (a coordinate never varied) free coefficients are zero, which
// fits every observed sample.  ok is false if the stream was non-affine
// or empty.
func (f *Fitter) Solve() (poly.Expr, bool) {
	if f.failed || f.nSamples == 0 {
		return poly.Expr{}, false
	}
	if f.solved != nil {
		return *f.solved, true
	}
	return f.solveExpr()
}
