package poly

import "fmt"

// StrideConstraint restricts a dimension to a lattice:
// (x_Var - Base(x)) ≡ 0 (mod Step), with Base an affine expression of
// the outer dimensions (typically the dimension's lower bound).  This
// is the "lattice" support the paper lists as a folding limitation
// (Sec. 8: hand-linearized loops with non-unit steps are not recognized
// as fully affine); polyprof implements it as an extension.
type StrideConstraint struct {
	Var  int
	Step int64
	Base Expr
}

// AddStride attaches a lattice constraint to dimension v.
func (p *Poly) AddStride(v int, step int64, base Expr) *Poly {
	if step <= 1 {
		return p
	}
	p.StrideCs = append(p.StrideCs, StrideConstraint{Var: v, Step: step, Base: base.Clone()})
	return p
}

// strideOK checks the lattice constraints at a full point.
func (p *Poly) strideOK(pt []int64) bool {
	for _, sc := range p.StrideCs {
		d := pt[sc.Var] - sc.Base.Eval(pt)
		if d%sc.Step != 0 {
			return false
		}
	}
	return true
}

// strideFor returns the lattice step and base value for dimension k
// given the fixed prefix (1 when dense).  Lattice bases only reference
// outer dimensions, so the prefix suffices.
func (p *Poly) strideFor(k int, pt []int64) (step int64, base int64) {
	for _, sc := range p.StrideCs {
		if sc.Var == k {
			return sc.Step, sc.Base.Eval(pt)
		}
	}
	return 1, 0
}

// alignUp returns the smallest v >= lo with v ≡ base (mod step).
func alignUp(lo, base, step int64) int64 {
	if step <= 1 {
		return lo
	}
	d := (lo - base) % step
	if d < 0 {
		d += step
	}
	if d == 0 {
		return lo
	}
	return lo + step - d
}

// String rendering of stride constraints.
func (sc StrideConstraint) String() string {
	return fmt.Sprintf("(i%d - (%s)) mod %d == 0", sc.Var, sc.Base, sc.Step)
}
