package poly

// Intersect returns the conjunction of two polyhedra of equal
// dimensionality.
func (p *Poly) Intersect(q *Poly) *Poly {
	if p.Dim != q.Dim {
		panic("poly: Intersect dimension mismatch")
	}
	r := p.Clone()
	r.Approx = p.Approx || q.Approx
	for _, c := range q.Cs {
		r.Cs = append(r.Cs, Constraint{E: c.E.Clone(), Eq: c.Eq})
	}
	return r
}

// IsSubsetOf reports whether every rational point of p satisfies q's
// constraints (sound for the dense integer polyhedra the folder
// produces).  For each constraint c of q it checks that p ∧ ¬c is
// empty; equalities are split into two inequalities.
func (p *Poly) IsSubsetOf(q *Poly) bool {
	if p.Dim != q.Dim {
		return false
	}
	if p.IsEmpty() {
		return true
	}
	for _, c := range q.Cs {
		if c.Eq {
			// p must satisfy c.E == 0 everywhere: both strict violations
			// must be infeasible.
			if !p.violationEmpty(c.E) || !p.violationEmpty(c.E.Neg()) {
				return false
			}
			continue
		}
		if !p.violationEmpty(c.E) {
			return false
		}
	}
	return true
}

// violationEmpty checks that p ∧ (e < 0) is empty, using the integer
// tightening e <= -1.
func (p *Poly) violationEmpty(e Expr) bool {
	viol := p.Clone()
	// e < 0 over integers: e <= -1, i.e. -e - 1 >= 0.
	viol.Add(e.Neg().Sub(Const(p.Dim, 1)))
	return viol.IsEmpty()
}
