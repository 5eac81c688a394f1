package poly

import (
	"testing"
	"testing/quick"
)

func box(lo0, hi0, lo1, hi1 int64) *Poly {
	p := NewPoly(2)
	p.AddRange(0, lo0, hi0)
	p.AddRange(1, lo1, hi1)
	return p
}

func TestIntersect(t *testing.T) {
	a := box(0, 10, 0, 10)
	b := box(5, 15, 5, 15)
	i := a.Intersect(b)
	if !i.Contains([]int64{7, 7}) || i.Contains([]int64{2, 2}) || i.Contains([]int64{12, 12}) {
		t.Errorf("intersection wrong: %v", i)
	}
	if n, _ := i.PointCount(1000); n != 36 {
		t.Errorf("intersection has %d points, want 36", n)
	}
}

func TestIsSubsetOf(t *testing.T) {
	inner := box(2, 4, 2, 4)
	outer := box(0, 10, 0, 10)
	if !inner.IsSubsetOf(outer) {
		t.Error("inner box must be a subset")
	}
	if outer.IsSubsetOf(inner) {
		t.Error("outer box must not be a subset of inner")
	}
	if !inner.IsSubsetOf(inner) {
		t.Error("subset must be reflexive")
	}
	// Triangle inside its bounding box.
	tri := NewPoly(2)
	tri.AddRange(0, 0, 5)
	tri.Add(Var(2, 1))
	tri.Add(Var(2, 0).Sub(Var(2, 1)))
	if !tri.IsSubsetOf(box(0, 5, 0, 5)) {
		t.Error("triangle must be inside its bounding box")
	}
	if box(0, 5, 0, 5).IsSubsetOf(tri) {
		t.Error("box is not inside the triangle")
	}
	// Empty set is a subset of anything.
	empty := box(5, 1, 0, 0)
	if !empty.IsSubsetOf(tri) {
		t.Error("empty set must be a subset")
	}
}

// TestSubsetMatchesEnumeration: property test against brute force.
func TestSubsetMatchesEnumeration(t *testing.T) {
	f := func(alo, aext, blo, bext uint8) bool {
		a := box(int64(alo%6), int64(alo%6)+int64(aext%5), 0, 3)
		b := box(int64(blo%6), int64(blo%6)+int64(bext%5), 0, 3)
		want := true
		_ = a.Enumerate(func(pt []int64) bool {
			if !b.Contains(pt) {
				want = false
				return false
			}
			return true
		})
		return a.IsSubsetOf(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
