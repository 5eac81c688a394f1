package poly

import (
	"fmt"
	"math/big"
	"strings"
)

// Constraint is an affine constraint: E >= 0, or E == 0 when Eq.
type Constraint struct {
	E  Expr
	Eq bool
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Eq {
		return c.E.String() + " == 0"
	}
	return c.E.String() + " >= 0"
}

// Poly is a convex integer polyhedron: the integer points satisfying a
// conjunction of affine constraints.
type Poly struct {
	Dim int
	Cs  []Constraint

	// StrideCs are optional lattice constraints (stride extension; see
	// stride.go).
	StrideCs []StrideConstraint

	// Approx marks polyhedra produced by over-approximation (bounding
	// boxes around irregular point sets); dependence analysis treats
	// their affine maps as unreliable.
	Approx bool
}

// NewPoly creates an unconstrained polyhedron (the whole Z^dim).
func NewPoly(dim int) *Poly { return &Poly{Dim: dim} }

// Clone returns a deep copy.
func (p *Poly) Clone() *Poly {
	q := &Poly{Dim: p.Dim, Approx: p.Approx, Cs: make([]Constraint, len(p.Cs))}
	for i, c := range p.Cs {
		q.Cs[i] = Constraint{E: c.E.Clone(), Eq: c.Eq}
	}
	for _, sc := range p.StrideCs {
		q.StrideCs = append(q.StrideCs, StrideConstraint{Var: sc.Var, Step: sc.Step, Base: sc.Base.Clone()})
	}
	return q
}

// Add appends a constraint E >= 0.
func (p *Poly) Add(e Expr) *Poly {
	p.Cs = append(p.Cs, Constraint{E: e})
	return p
}

// AddEq appends a constraint E == 0.
func (p *Poly) AddEq(e Expr) *Poly {
	p.Cs = append(p.Cs, Constraint{E: e, Eq: true})
	return p
}

// AddRange constrains lo <= x_i <= hi with constant bounds.
func (p *Poly) AddRange(i int, lo, hi int64) *Poly {
	e := Var(p.Dim, i)
	p.Add(e.Sub(Const(p.Dim, lo))) // x_i - lo >= 0
	p.Add(Const(p.Dim, hi).Sub(e)) // hi - x_i >= 0
	return p
}

// AddLowerExpr constrains x_i >= e.
func (p *Poly) AddLowerExpr(i int, e Expr) *Poly {
	return p.Add(Var(p.Dim, i).Sub(e))
}

// AddUpperExpr constrains x_i <= e.
func (p *Poly) AddUpperExpr(i int, e Expr) *Poly {
	return p.Add(e.Sub(Var(p.Dim, i)))
}

// Contains reports whether the point satisfies every affine and
// lattice constraint.
func (p *Poly) Contains(pt []int64) bool {
	for _, c := range p.Cs {
		v := c.E.Eval(pt)
		if c.Eq && v != 0 {
			return false
		}
		if !c.Eq && v < 0 {
			return false
		}
	}
	return p.strideOK(pt)
}

// ratConstraint is a constraint over rationals used during elimination.
type ratConstraint struct {
	c  []*big.Rat // coefficients
	k  *big.Rat
	eq bool
}

func (p *Poly) ratConstraints() []ratConstraint {
	out := make([]ratConstraint, 0, len(p.Cs))
	for _, c := range p.Cs {
		rc := ratConstraint{c: make([]*big.Rat, p.Dim), k: ratFromInt(c.E.K), eq: c.Eq}
		for i, v := range c.E.C {
			rc.c[i] = ratFromInt(v)
		}
		out = append(out, rc)
	}
	return out
}

// eliminate removes variable v from the rational system by
// Fourier–Motzkin (equalities are used for substitution first).
func eliminate(cs []ratConstraint, v int) []ratConstraint {
	// Substitution via an equality that mentions v, if any.
	for idx, c := range cs {
		if !c.eq || c.c[v].Sign() == 0 {
			continue
		}
		// v = -(k + sum_{j!=v} cj xj) / cv
		out := make([]ratConstraint, 0, len(cs)-1)
		cv := c.c[v]
		for j, o := range cs {
			if j == idx {
				continue
			}
			if o.c[v].Sign() == 0 {
				out = append(out, o)
				continue
			}
			// o' = o - (o_v / c_v) * c
			f := new(big.Rat).Quo(o.c[v], cv)
			n := ratConstraint{c: make([]*big.Rat, len(o.c)), k: new(big.Rat), eq: o.eq}
			for i := range o.c {
				n.c[i] = new(big.Rat).Sub(o.c[i], new(big.Rat).Mul(f, c.c[i]))
			}
			n.k.Sub(o.k, new(big.Rat).Mul(f, c.k))
			out = append(out, n)
		}
		return out
	}

	var lower, upper, rest []ratConstraint // lower: c_v > 0 (v >= ...), upper: c_v < 0
	for _, c := range cs {
		switch c.c[v].Sign() {
		case 0:
			rest = append(rest, c)
		case 1:
			lower = append(lower, c)
		default:
			upper = append(upper, c)
		}
	}
	for _, lo := range lower {
		for _, hi := range upper {
			// lo: a*v + L >= 0  (v >= -L/a, a>0)
			// hi: -b*v + U >= 0 (v <= U/b, b>0 where hi.c[v] = -b)
			// combine: b*L + a*U >= 0  i.e. (-hi.c[v])*lo + lo.c[v]*hi
			a := lo.c[v]
			b := new(big.Rat).Neg(hi.c[v])
			n := ratConstraint{c: make([]*big.Rat, len(lo.c)), k: new(big.Rat)}
			for i := range lo.c {
				n.c[i] = new(big.Rat).Add(
					new(big.Rat).Mul(b, lo.c[i]),
					new(big.Rat).Mul(a, hi.c[i]),
				)
			}
			n.k.Add(new(big.Rat).Mul(b, lo.k), new(big.Rat).Mul(a, hi.k))
			rest = append(rest, n)
		}
	}
	return rest
}

// IsEmpty reports whether the polyhedron has no rational points (a
// sound, slightly conservative stand-in for integer emptiness; the
// polyhedra polyprof folds are dense, so the two coincide in practice).
func (p *Poly) IsEmpty() bool {
	cs := p.ratConstraints()
	for v := 0; v < p.Dim; v++ {
		cs = eliminate(cs, v)
	}
	for _, c := range cs {
		s := c.k.Sign()
		if c.eq && s != 0 {
			return true
		}
		if !c.eq && s < 0 {
			return true
		}
	}
	return false
}

// Bounds returns the rational minimum and maximum of e over the
// polyhedron.  loOK/hiOK are false when the respective side is
// unbounded (or the polyhedron is empty, in which case both are false).
func (p *Poly) Bounds(e Expr) (lo, hi *big.Rat, loOK, hiOK bool) {
	if p.IsEmpty() {
		return nil, nil, false, false
	}
	// Add t - e == 0 with t as an extra variable, then eliminate all
	// original variables; the remaining constraints bound t.
	dim := p.Dim
	cs := make([]ratConstraint, 0, len(p.Cs)+1)
	for _, c := range p.Cs {
		rc := ratConstraint{c: make([]*big.Rat, dim+1), k: ratFromInt(c.E.K), eq: c.Eq}
		for i, v := range c.E.C {
			rc.c[i] = ratFromInt(v)
		}
		rc.c[dim] = new(big.Rat)
		cs = append(cs, rc)
	}
	teq := ratConstraint{c: make([]*big.Rat, dim+1), k: ratFromInt(-e.K), eq: true}
	for i := 0; i < dim; i++ {
		teq.c[i] = ratFromInt(-e.C[i])
	}
	teq.c[dim] = ratFromInt(1)
	cs = append(cs, teq)

	for v := 0; v < dim; v++ {
		cs = eliminate(cs, v)
	}
	for _, c := range cs {
		cv := c.c[dim]
		s := cv.Sign()
		switch {
		case c.eq && s != 0:
			// t == -k/cv exactly.
			val := new(big.Rat).Quo(new(big.Rat).Neg(c.k), cv)
			return val, new(big.Rat).Set(val), true, true
		case s > 0: // cv*t + k >= 0 -> t >= -k/cv
			b := new(big.Rat).Quo(new(big.Rat).Neg(c.k), cv)
			if !loOK || b.Cmp(lo) > 0 {
				lo, loOK = b, true
			}
		case s < 0: // t <= -k/cv
			b := new(big.Rat).Quo(new(big.Rat).Neg(c.k), cv)
			if !hiOK || b.Cmp(hi) < 0 {
				hi, hiOK = b, true
			}
		}
	}
	return lo, hi, loOK, hiOK
}

// IntBounds returns integer (floor/ceil) bounds of e over the
// polyhedron, with ok flags as in Bounds.
func (p *Poly) IntBounds(e Expr) (lo, hi int64, loOK, hiOK bool) {
	rlo, rhi, lok, hok := p.Bounds(e)
	if lok {
		lo = ceilRat(rlo)
	}
	if hok {
		hi = floorRat(rhi)
	}
	return lo, hi, lok, hok
}

func floorRat(r *big.Rat) int64 {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() < 0 && new(big.Int).Mul(q, r.Denom()).Cmp(r.Num()) != 0 {
		q.Sub(q, big.NewInt(1))
	}
	return q.Int64()
}

func ceilRat(r *big.Rat) int64 {
	return -floorRat(new(big.Rat).Neg(r))
}

// PointCount returns the exact number of integer points when the
// polyhedron can be enumerated, capped at limit (returns limit and
// false if the cap is hit or enumeration fails).
func (p *Poly) PointCount(limit int64) (int64, bool) {
	var n int64
	err := p.Enumerate(func([]int64) bool {
		n++
		return n < limit
	})
	if err != nil || n >= limit {
		return n, false
	}
	return n, true
}

// String renders the polyhedron in ISL-like syntax:
// "{ [i0,i1] : 0 <= i0 and ... }".
func (p *Poly) String() string {
	vars := make([]string, p.Dim)
	for i := range vars {
		vars[i] = fmt.Sprintf("i%d", i)
	}
	parts := make([]string, len(p.Cs))
	for i, c := range p.Cs {
		op := ">="
		if c.Eq {
			op = "=="
		}
		parts[i] = fmt.Sprintf("%s %s 0", c.E.Render(vars), op)
	}
	for _, sc := range p.StrideCs {
		parts = append(parts, sc.String())
	}
	tag := ""
	if p.Approx {
		tag = " approx"
	}
	return fmt.Sprintf("{ [%s]%s : %s }", strings.Join(vars, ","), tag, strings.Join(parts, " and "))
}
