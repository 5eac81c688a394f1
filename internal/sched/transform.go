package sched

import (
	"fmt"
	"sort"
	"strings"

	"polyprof/internal/iiv"
)

// NestTransform is the proposed structured transformation of one nest.
type NestTransform struct {
	Nest *Nest

	// Skews[k] lists the skewing terms applied to dimension k (empty =
	// none); each term adds Factor*i_Base to i_k.
	Skews [][]SkewTerm
	// Parallel[k] per original dimension (in the original loop order).
	Parallel []bool
	// BandStart/BandLen describe the maximal fully permutable band
	// (after skewing).
	BandStart, BandLen int
	// Perm is the suggested dimension order (indices into the original
	// dims); dims outside the band keep their place.
	Perm []int
	// Interchange is true when Perm differs from identity.
	Interchange bool
	// SIMD is true when the innermost dimension after Perm is parallel.
	SIMD bool
	// InnerStride01 / InnerStride01After: fraction (weighted by access
	// count) of stride-0/±1 accesses along the innermost dimension
	// before and after the proposed permutation.
	InnerStride01      float64
	InnerStride01After float64
	// Stride01 is the per-dimension stride-0/±1 fraction.
	Stride01 []float64
	// SkewUsed is true when any Skews[k] != 0.
	SkewUsed bool
}

// SkewTerm is one skewing summand: i_k += Factor * i_Base.
type SkewTerm struct {
	Base   int
	Factor int64
}

// TileDepth returns the tilable band depth.
func (t *NestTransform) TileDepth() int { return t.BandLen }

// Tilable reports whether tiling is worthwhile and legal: a permutable
// band of depth >= 2, or a parallel 1-dimensional band (strip-mining).
func (t *NestTransform) Tilable() bool {
	if t.BandLen >= 2 {
		return true
	}
	return t.BandLen == 1 && t.BandStart < len(t.Parallel) && t.Parallel[t.BandStart]
}

// OuterParallel reports whether the transformed nest exposes
// coarse-grain parallelism: a parallel non-innermost dimension after
// the permutation, or wavefront parallelism over a tilable band of
// depth >= 2 (paper Sec. 7, case study II).
func (t *NestTransform) OuterParallel() bool {
	for i := 0; i < len(t.Perm)-1; i++ {
		if t.Parallel[t.Perm[i]] {
			return true
		}
	}
	return t.BandLen >= 2
}

// FullyPermutable reports whether the whole nest forms one permutable
// band.
func (t *NestTransform) FullyPermutable() bool {
	return t.BandLen == t.Nest.Depth()
}

// TransformNest derives the proposed transformation of one nest.  The
// nest must have been produced by Model.Transform (which caches the
// per-dimension dependence lists).
func TransformNest(n *Nest) *NestTransform {
	d := n.Depth()
	t := &NestTransform{
		Nest:     n,
		Skews:    make([][]SkewTerm, d),
		Parallel: make([]bool, d),
		Perm:     make([]int, d),
		Stride01: make([]float64, d),
	}
	for k := 0; k < d; k++ {
		t.Parallel[k] = n.Dims[k].Parallel
		t.Perm[k] = k
	}

	// Maximal fully permutable band (Wolf-Lam): a band [a, b] is fully
	// permutable iff every dependence not already satisfied by a
	// dimension outer than a has non-negative distance on every
	// dimension of the band.  Skewing a dimension against outer band
	// dimensions that carry the offending dependencies repairs negative
	// components; the search tracks per-dependence *effective* distances
	// so chained skews compose correctly.
	// The paper "tends to avoid skewing unless it really provides
	// improvements in parallelism and tilability": prefer the best
	// skew-free band and only fall back to skewed bands when no
	// skew-free band of depth >= 2 exists.
	bestStart, bestLen := 0, 0
	var bestSkews [][]SkewTerm
	for _, allowSkew := range []bool{false, true} {
		for a := n.FirstPrivate; a < d; a++ {
			skews, length := n.growBand(a, allowSkew)
			if length > bestLen {
				bestStart, bestLen, bestSkews = a, length, skews
			}
		}
		if bestLen >= 2 {
			break
		}
	}
	t.BandStart, t.BandLen = bestStart, bestLen
	if bestSkews != nil {
		for k, terms := range bestSkews {
			if len(terms) > 0 {
				t.Skews[k] = terms
				t.SkewUsed = true
				t.Parallel[k] = false // a skewed dimension is carried
			}
		}
	}

	// Stride profile per dimension.
	per, total := n.strideWeights()
	for k := 0; k < d; k++ {
		t.Stride01[k] = frac(per[k], total)
	}
	if d > 0 {
		t.InnerStride01 = t.Stride01[d-1]
	}

	// Interchange inside the band: the dimension with the best
	// SIMD profit (parallel, high stride-0/1 fraction) goes innermost;
	// among the remaining, parallel dimensions go outermost.
	if t.BandLen >= 2 {
		band := make([]int, 0, t.BandLen)
		for k := t.BandStart; k < t.BandStart+t.BandLen; k++ {
			band = append(band, k)
		}
		inner := band[0]
		for _, k := range band[1:] {
			if simdProfit(t, k) > simdProfit(t, inner) {
				inner = k
			}
		}
		rest := make([]int, 0, len(band)-1)
		for _, k := range band {
			if k != inner {
				rest = append(rest, k)
			}
		}
		sort.SliceStable(rest, func(i, j int) bool {
			pi, pj := t.Parallel[rest[i]], t.Parallel[rest[j]]
			if pi != pj {
				return pi
			}
			return rest[i] < rest[j]
		})
		for i, k := range append(rest, inner) {
			t.Perm[t.BandStart+i] = k
		}
	}
	for i, k := range t.Perm {
		if i != k {
			t.Interchange = true
		}
	}
	if d > 0 {
		inner := t.Perm[d-1]
		t.InnerStride01After = t.Stride01[inner]
		t.SIMD = t.Parallel[inner]
	}
	return t
}

// growBand extends a permutable band from start dimension a as far as
// possible, skewing as needed.  It returns the per-dimension skew terms
// and the band length.
func (n *Nest) growBand(a int, allowSkew bool) ([][]SkewTerm, int) {
	n.obs.Add("sched.bands.searched", 1)
	d := n.Depth()
	skews := make([][]SkewTerm, d)

	// Effective distance bounds per relevant dependence.
	type effDep struct {
		dep *Dep
		eff []DistBound
	}
	var deps []*effDep
	seen := map[*Dep]bool{}
	for k := a; k < d; k++ {
		for _, dp := range n.skewDeps[k] {
			if !seen[dp] && !dp.SatisfiedBefore(a) {
				seen[dp] = true
				eff := make([]DistBound, len(dp.Dist))
				copy(eff, dp.Dist)
				deps = append(deps, &effDep{dep: dp, eff: eff})
			}
		}
	}

	b := a
	for b < d {
		if n.Dims[b].HasStar {
			break
		}
		// Collect offenders at dimension b.
		factors := map[int]int64{} // base dim -> factor
		ok := true
		for _, ed := range deps {
			if b >= len(ed.eff) {
				continue
			}
			db := ed.eff[b]
			if !db.MinOK {
				ok = false
				break
			}
			if db.Min >= 0 {
				continue
			}
			// Find an outer band dimension carrying this dependence.
			found := false
			if !allowSkew {
				ok = false
				break
			}
			for j := a; j < b; j++ {
				if j >= len(ed.eff) {
					break
				}
				dj := ed.eff[j]
				if dj.MinOK && dj.Min >= 1 {
					f := ceilDiv64(-db.Min, dj.Min)
					if f > factors[j] {
						factors[j] = f
					}
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		// Apply the skews to every dependence's effective distance.
		for j, f := range factors {
			skews[b] = append(skews[b], SkewTerm{Base: j, Factor: f})
			for _, ed := range deps {
				if b >= len(ed.eff) || j >= len(ed.eff) {
					continue
				}
				ed.eff[b].Min += f * ed.eff[j].Min
				ed.eff[b].Max += f * ed.eff[j].Max
			}
		}
		b++
	}
	sortSkews(skews)
	return skews, b - a
}

func sortSkews(skews [][]SkewTerm) {
	for _, terms := range skews {
		sort.Slice(terms, func(i, j int) bool { return terms[i].Base < terms[j].Base })
	}
}

// simdProfit scores a dimension as the vectorization target.
func simdProfit(t *NestTransform, k int) float64 {
	p := t.Stride01[k]
	if t.Parallel[k] {
		p += 1
	}
	return p
}

func ceilDiv64(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Transform analyzes and transforms every nest under root.
func (m *Model) Transform(root *iiv.TreeNode) []*NestTransform {
	nests := m.Nests(root)
	out := make([]*NestTransform, 0, len(nests))
	for _, n := range nests {
		n.fillSkewDeps(m)
		out = append(out, TransformNest(n))
	}
	m.obs.Add("sched.nests.transformed", uint64(len(out)))
	return out
}

// fillSkewDeps records, per dimension, the known-distance dependencies
// relevant to that dimension (star dependencies are already accounted
// for by the LoopInfo HasStar flag).
func (n *Nest) fillSkewDeps(m *Model) {
	n.skewDeps = make([][]*Dep, n.Depth())
	for k, l := range n.Loops {
		for _, d := range m.DepsUnder(l) {
			if !d.Star && d.Common > k {
				n.skewDeps[k] = append(n.skewDeps[k], d)
			}
		}
	}
}

// Describe renders the transformation compactly, e.g.
// "interchange(i1,i0) skew(i1+=2*i0) tile(2D) parallel(i0) simd".
func (t *NestTransform) Describe() string {
	var parts []string
	if t.Interchange {
		names := make([]string, len(t.Perm))
		for i, k := range t.Perm {
			names[i] = fmt.Sprintf("i%d", k)
		}
		parts = append(parts, "interchange("+strings.Join(names, ",")+")")
	}
	for k, terms := range t.Skews {
		for _, st := range terms {
			parts = append(parts, fmt.Sprintf("skew(i%d+=%d*i%d)", k, st.Factor, st.Base))
		}
	}
	if t.BandLen >= 2 {
		parts = append(parts, fmt.Sprintf("tile(%dD)", t.BandLen))
	}
	var par []string
	for k, p := range t.Parallel {
		if p {
			par = append(par, fmt.Sprintf("i%d", k))
		}
	}
	if len(par) > 0 {
		parts = append(parts, "parallel("+strings.Join(par, ",")+")")
	}
	if t.SIMD {
		parts = append(parts, "simd")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}
