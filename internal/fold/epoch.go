// Epoch support for streaming profiling: deep clones (provisional
// reports fold a clone so the live folder keeps accepting points — the
// recognizer's Finish is destructive) and an exact serializable state
// (epoch checkpoints persist folders through the jobstore WAL and
// restore them bit-identically on resume).
//
// The state format is JSON-friendly: fitter basis rows serialize as
// "num/den" strings, everything else is plain integers.  Restore is the
// exact inverse of State — a restored folder continues the stream as if
// it had never stopped, which is what makes resumed reports
// byte-identical to uninterrupted ones.
package fold

import (
	"fmt"
	"math"
	"math/big"
	"strconv"

	"polyprof/internal/faultinject"
	"polyprof/internal/poly"
)

// epochMergeFault injects at the epoch snapshot path (chaos point
// "fold.epoch.merge"): it fires while a provisional/checkpoint epoch
// merge is capturing folder state, the window where a crash must not
// corrupt the live stream.  HitPanic because State has no error return;
// the epoch driver in core recovers panics into attempt errors.
var epochMergeFault = faultinject.Point("fold.epoch.merge")

// Clone returns a deep copy of the fitter; the copy and the original
// evolve independently.
func (f *Fitter) Clone() *Fitter {
	c := &Fitter{m: f.m, failed: f.failed, wide: f.wide, nSamples: f.nSamples, eliminations: f.eliminations}
	if f.solved != nil {
		e := f.solved.Clone()
		c.solved = &e
	}
	if f.rows != nil {
		c.rows = make([][]int64, len(f.rows))
		for i, r := range f.rows {
			c.rows[i] = append([]int64(nil), r...)
		}
	}
	if f.wideRows != nil {
		c.wideRows = make([][]*big.Rat, len(f.wideRows))
		for i, r := range f.wideRows {
			row := make([]*big.Rat, len(r))
			for j, v := range r {
				row[j] = new(big.Rat).Set(v)
			}
			c.wideRows[i] = row
		}
	}
	if f.pivot != nil {
		c.pivot = append([]int(nil), f.pivot...)
	}
	return c
}

// Clone returns a deep copy of the folder (fresh ownership guard; the
// clone may be finished on another goroutine).
func (f *Folder) Clone() *Folder {
	c := &Folder{
		dim:           f.dim,
		labelW:        f.labelW,
		started:       f.started,
		points:        f.points,
		total:         f.total,
		exact:         f.exact,
		lexOK:         f.lexOK,
		DetectStrides: f.DetectStrides,
		labelDup:      f.labelDup,
		buffering:     f.buffering,
		bufSameCoords: f.bufSameCoords,
		bufSameAll:    f.bufSameAll,
		Obs:           f.Obs,
		prev:          append([]int64(nil), f.prev...),
		minBox:        append([]int64(nil), f.minBox...),
		maxBox:        append([]int64(nil), f.maxBox...),
		lastLbl:       append([]int64(nil), f.lastLbl...),
	}
	c.labelFit = make([]*Fitter, len(f.labelFit))
	for i, fit := range f.labelFit {
		c.labelFit[i] = fit.Clone()
	}
	c.levels = make([]levelState, len(f.levels))
	for i, lv := range f.levels {
		cl := lv
		if lv.loFit != nil {
			cl.loFit = lv.loFit.Clone()
			cl.hiFit = lv.hiFit.Clone()
		}
		c.levels[i] = cl
	}
	if f.buf != nil {
		c.buf = make([]bufPoint, len(f.buf))
		for i, p := range f.buf {
			c.buf[i] = bufPoint{
				coords: append([]int64(nil), p.coords...),
				label:  append([]int64(nil), p.label...),
			}
		}
	}
	return c
}

// Clone returns a deep copy of the piecewise folder.
func (m *MultiFolder) Clone() *MultiFolder {
	c := &MultiFolder{dim: m.dim, labelW: m.labelW, maxPieces: m.maxPieces, points: m.points, Obs: m.Obs}
	c.pieces = make([]*Folder, len(m.pieces))
	for i, p := range m.pieces {
		c.pieces[i] = p.Clone()
	}
	if m.overflow != nil {
		c.overflow = m.overflow.Clone()
	}
	return c
}

// FitterState is the serializable form of a Fitter.  Basis rows are
// exact rationals rendered as "num/den" strings (big.Rat has no JSON
// representation of its own); the int64 rows render as plain integers
// such as "3".  Any nonzero scaling of a row is the same equation, so
// states written by a fitter that kept rational rows restore too.
type FitterState struct {
	M        int        `json:"m"`
	Failed   bool       `json:"failed,omitempty"`
	Rows     [][]string `json:"rows,omitempty"`
	Pivot    []int      `json:"pivot,omitempty"`
	Solved   *poly.Expr `json:"solved,omitempty"`
	NSamples int        `json:"n"`
}

// State captures the fitter for checkpointing.
func (f *Fitter) State() FitterState {
	s := FitterState{M: f.m, Failed: f.failed, NSamples: f.nSamples}
	if f.solved != nil {
		e := f.solved.Clone()
		s.Solved = &e
	}
	switch {
	case f.rows != nil:
		s.Rows = make([][]string, len(f.rows))
		for i, r := range f.rows {
			row := make([]string, len(r))
			for j, v := range r {
				row[j] = strconv.FormatInt(v, 10)
			}
			s.Rows[i] = row
		}
	case f.wideRows != nil:
		s.Rows = make([][]string, len(f.wideRows))
		for i, r := range f.wideRows {
			row := make([]string, len(r))
			for j, v := range r {
				row[j] = v.RatString()
			}
			s.Rows[i] = row
		}
	}
	if s.Rows != nil {
		s.Pivot = append([]int(nil), f.pivot...)
	}
	return s
}

// RestoreFitter rebuilds a fitter from its checkpointed state.  Rows
// are scaled to the primitive int64 rows an uninterrupted fitter would
// hold, so a resumed stream continues on the int64 path; only a row
// that does not fit leaves the fitter on big.Rat rows.
func RestoreFitter(s FitterState) (*Fitter, error) {
	f := &Fitter{m: s.M, failed: s.Failed, nSamples: s.NSamples}
	if s.Solved != nil {
		e := s.Solved.Clone()
		f.solved = &e
	}
	if s.Rows == nil {
		return f, nil
	}
	if len(s.Pivot) != len(s.Rows) {
		return nil, fmt.Errorf("fold: fitter state has %d rows but %d pivots", len(s.Rows), len(s.Pivot))
	}
	wide := make([][]*big.Rat, len(s.Rows))
	for i, r := range s.Rows {
		p := s.Pivot[i]
		if len(r) != s.M+2 || p < 0 || p > s.M {
			return nil, fmt.Errorf("fold: malformed row %d in fitter state", i)
		}
		row := make([]*big.Rat, len(r))
		for j, v := range r {
			rat, ok := new(big.Rat).SetString(v)
			if !ok {
				return nil, fmt.Errorf("fold: bad rational %q in fitter state", v)
			}
			row[j] = rat
		}
		if row[p].Sign() == 0 {
			return nil, fmt.Errorf("fold: zero pivot in row %d of fitter state", i)
		}
		wide[i] = row
	}
	f.pivot = append([]int(nil), s.Pivot...)
	rows := make([][]int64, len(wide))
	for i, r := range wide {
		row, ok := intRow(r, f.pivot[i])
		if !ok {
			f.wide, f.wideRows = true, wide
			return f, nil
		}
		rows[i] = row
	}
	f.rows = rows
	return f, nil
}

// intRow scales a rational row to the primitive integer row with a
// positive entry in column p; ok is false when an entry falls outside
// the int64 rows' range.
func intRow(r []*big.Rat, p int) ([]int64, bool) {
	lcm, g := big.NewInt(1), new(big.Int)
	for _, v := range r {
		g.GCD(nil, nil, lcm, v.Denom())
		lcm.Mul(lcm, new(big.Int).Quo(v.Denom(), g))
	}
	nums := make([]*big.Int, len(r))
	content := new(big.Int)
	for j, v := range r {
		n := new(big.Int).Quo(lcm, v.Denom())
		nums[j] = n.Mul(n, v.Num())
		content.GCD(nil, nil, content, n)
	}
	if r[p].Sign() < 0 {
		content.Neg(content)
	}
	row := make([]int64, len(r))
	for j, n := range nums {
		n.Quo(n, content)
		if !n.IsInt64() || n.Int64() == math.MinInt64 {
			return nil, false
		}
		row[j] = n.Int64()
	}
	return row, true
}

// LevelStateData serializes one run-recognition level.
type LevelStateData struct {
	GroupFirst int64        `json:"gf"`
	PrevVal    int64        `json:"pv"`
	Holes      bool         `json:"holes,omitempty"`
	Stride     int64        `json:"stride,omitempty"`
	LoFit      *FitterState `json:"lo,omitempty"`
	HiFit      *FitterState `json:"hi,omitempty"`
}

// BufPointData serializes one buffered fast-path point.
type BufPointData struct {
	Coords []int64 `json:"c"`
	Label  []int64 `json:"l,omitempty"`
}

// FolderState is the serializable form of a Folder.
type FolderState struct {
	Dim           int              `json:"dim"`
	LabelW        int              `json:"labelw"`
	LabelFit      []FitterState    `json:"labelfit,omitempty"`
	Levels        []LevelStateData `json:"levels,omitempty"`
	Prev          []int64          `json:"prev,omitempty"`
	MinBox        []int64          `json:"min,omitempty"`
	MaxBox        []int64          `json:"max,omitempty"`
	Started       bool             `json:"started,omitempty"`
	Points        uint64           `json:"points,omitempty"`
	Total         uint64           `json:"total,omitempty"`
	Exact         bool             `json:"exact"`
	LexOK         bool             `json:"lex"`
	DetectStrides bool             `json:"strides"`
	LabelDup      bool             `json:"labeldup,omitempty"`
	LastLbl       []int64          `json:"lastlbl,omitempty"`
	Buffering     bool             `json:"buffering,omitempty"`
	Buf           []BufPointData   `json:"buf,omitempty"`
	BufSameCoords bool             `json:"bufsamec,omitempty"`
	BufSameAll    bool             `json:"bufsamea,omitempty"`
}

// State captures the folder for checkpointing.  The chaos point
// fold.epoch.merge fires here: capturing folder state is the epoch
// merge's critical section.
func (f *Folder) State() FolderState {
	epochMergeFault.HitPanic()
	s := FolderState{
		Dim: f.dim, LabelW: f.labelW,
		Prev: append([]int64(nil), f.prev...), MinBox: append([]int64(nil), f.minBox...),
		MaxBox: append([]int64(nil), f.maxBox...), Started: f.started,
		Points: f.points, Total: f.total, Exact: f.exact, LexOK: f.lexOK,
		DetectStrides: f.DetectStrides, LabelDup: f.labelDup,
		LastLbl:   append([]int64(nil), f.lastLbl...),
		Buffering: f.buffering, BufSameCoords: f.bufSameCoords, BufSameAll: f.bufSameAll,
	}
	for _, fit := range f.labelFit {
		s.LabelFit = append(s.LabelFit, fit.State())
	}
	for i := range f.levels {
		lv := &f.levels[i]
		d := LevelStateData{GroupFirst: lv.groupFirst, PrevVal: lv.prevVal, Holes: lv.holes, Stride: lv.stride}
		if lv.loFit != nil {
			lo := lv.loFit.State()
			hi := lv.hiFit.State()
			d.LoFit, d.HiFit = &lo, &hi
		}
		s.Levels = append(s.Levels, d)
	}
	for _, p := range f.buf {
		s.Buf = append(s.Buf, BufPointData{
			Coords: append([]int64(nil), p.coords...),
			Label:  append([]int64(nil), p.label...),
		})
	}
	return s
}

// RestoreFolder rebuilds a folder from its checkpointed state.
func RestoreFolder(s FolderState) (*Folder, error) {
	f := &Folder{
		dim: s.Dim, labelW: s.LabelW,
		prev: make([]int64, s.Dim), minBox: make([]int64, s.Dim), maxBox: make([]int64, s.Dim),
		started: s.Started, points: s.Points, total: s.Total,
		exact: s.Exact, lexOK: s.LexOK, DetectStrides: s.DetectStrides,
		labelDup:  s.LabelDup,
		buffering: s.Buffering, bufSameCoords: s.BufSameCoords, bufSameAll: s.BufSameAll,
	}
	copy(f.prev, s.Prev)
	copy(f.minBox, s.MinBox)
	copy(f.maxBox, s.MaxBox)
	if s.LabelW > 0 {
		f.lastLbl = make([]int64, s.LabelW)
		copy(f.lastLbl, s.LastLbl)
	}
	f.labelFit = make([]*Fitter, s.LabelW)
	for i := range f.labelFit {
		if i < len(s.LabelFit) {
			fit, err := RestoreFitter(s.LabelFit[i])
			if err != nil {
				return nil, err
			}
			f.labelFit[i] = fit
		} else {
			f.labelFit[i] = NewFitter(s.Dim)
		}
	}
	f.levels = make([]levelState, s.Dim)
	for i := range f.levels {
		if i >= len(s.Levels) {
			continue
		}
		d := s.Levels[i]
		lv := levelState{groupFirst: d.GroupFirst, prevVal: d.PrevVal, holes: d.Holes, stride: d.Stride}
		if d.LoFit != nil {
			lo, err := RestoreFitter(*d.LoFit)
			if err != nil {
				return nil, err
			}
			hi, err := RestoreFitter(*d.HiFit)
			if err != nil {
				return nil, err
			}
			lv.loFit, lv.hiFit = lo, hi
		}
		f.levels[i] = lv
	}
	for _, p := range s.Buf {
		f.buf = append(f.buf, bufPoint{
			coords: append([]int64(nil), p.Coords...),
			label:  append([]int64(nil), p.Label...),
		})
	}
	return f, nil
}

// MultiFolderState is the serializable form of a MultiFolder.
type MultiFolderState struct {
	Dim       int           `json:"dim"`
	LabelW    int           `json:"labelw"`
	MaxPieces int           `json:"maxp"`
	Pieces    []FolderState `json:"pieces,omitempty"`
	Overflow  *FolderState  `json:"overflow,omitempty"`
	Points    uint64        `json:"points,omitempty"`
}

// State captures the piecewise folder for checkpointing.
func (m *MultiFolder) State() MultiFolderState {
	s := MultiFolderState{Dim: m.dim, LabelW: m.labelW, MaxPieces: m.maxPieces, Points: m.points}
	for _, p := range m.pieces {
		s.Pieces = append(s.Pieces, p.State())
	}
	if m.overflow != nil {
		o := m.overflow.State()
		s.Overflow = &o
	}
	return s
}

// RestoreMultiFolder rebuilds a piecewise folder from its state.
func RestoreMultiFolder(s MultiFolderState) (*MultiFolder, error) {
	m := &MultiFolder{dim: s.Dim, labelW: s.LabelW, maxPieces: s.MaxPieces, points: s.Points}
	for _, ps := range s.Pieces {
		p, err := RestoreFolder(ps)
		if err != nil {
			return nil, err
		}
		m.pieces = append(m.pieces, p)
	}
	if s.Overflow != nil {
		o, err := RestoreFolder(*s.Overflow)
		if err != nil {
			return nil, err
		}
		m.overflow = o
	}
	return m, nil
}
