package fold

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"polyprof/internal/obs"
	"polyprof/internal/poly"
)

// ratFitter is the reference the int64 fitter is checked against: plain
// exact rational Gaussian elimination with the same pivot order and the
// same integrality rule.
type ratFitter struct {
	m      int
	failed bool
	rows   [][]*big.Rat
	pivot  []int
	solved *poly.Expr
	n      int
}

// reduced returns the sample row [x..., 1 | y] eliminated against the
// basis.
func (f *ratFitter) reduced(x []int64, y int64) []*big.Rat {
	row := make([]*big.Rat, f.m+2)
	for i := 0; i < f.m; i++ {
		row[i] = new(big.Rat).SetInt64(x[i])
	}
	row[f.m] = big.NewRat(1, 1)
	row[f.m+1] = new(big.Rat).SetInt64(y)
	for i, r := range f.rows {
		p := f.pivot[i]
		if row[p].Sign() == 0 {
			continue
		}
		k := new(big.Rat).Quo(row[p], r[p])
		for j := range row {
			row[j] = new(big.Rat).Sub(row[j], new(big.Rat).Mul(k, r[j]))
		}
	}
	return row
}

// lead is the pivot column: the constant column first, then x0, x1, ...
func (f *ratFitter) lead(row []*big.Rat) int {
	if row[f.m].Sign() != 0 {
		return f.m
	}
	for j := 0; j < f.m; j++ {
		if row[j].Sign() != 0 {
			return j
		}
	}
	return -1
}

func (f *ratFitter) Check(x []int64, y int64) bool {
	if f.failed {
		return false
	}
	if f.solved != nil {
		return f.solved.Eval(x) == y
	}
	row := f.reduced(x, y)
	return f.lead(row) != -1 || row[f.m+1].Sign() == 0
}

func (f *ratFitter) Add(x []int64, y int64) bool {
	if f.failed {
		return false
	}
	f.n++
	if f.solved != nil {
		if f.solved.Eval(x) != y {
			f.fail()
		}
		return !f.failed
	}
	row := f.reduced(x, y)
	lead := f.lead(row)
	if lead == -1 {
		if row[f.m+1].Sign() != 0 {
			f.fail()
		}
		return !f.failed
	}
	for _, r := range f.rows {
		if r[lead].Sign() == 0 {
			continue
		}
		k := new(big.Rat).Quo(r[lead], row[lead])
		for j := range r {
			r[j] = new(big.Rat).Sub(r[j], new(big.Rat).Mul(k, row[j]))
		}
	}
	f.rows = append(f.rows, row)
	f.pivot = append(f.pivot, lead)
	if len(f.rows) == f.m+1 {
		e, ok := f.solve()
		if !ok {
			f.fail()
			return false
		}
		f.solved, f.rows, f.pivot = &e, nil, nil
	}
	return true
}

func (f *ratFitter) fail() {
	f.failed, f.rows, f.pivot, f.solved = true, nil, nil, nil
}

func (f *ratFitter) solve() (poly.Expr, bool) {
	e := poly.NewExpr(f.m)
	for i, r := range f.rows {
		c := new(big.Rat).Quo(r[f.m+1], r[f.pivot[i]])
		if !c.IsInt() {
			return poly.Expr{}, false
		}
		if p := f.pivot[i]; p == f.m {
			e.K = c.Num().Int64()
		} else {
			e.C[p] = c.Num().Int64()
		}
	}
	return e, true
}

func (f *ratFitter) Solve() (poly.Expr, bool) {
	if f.failed || f.n == 0 {
		return poly.Expr{}, false
	}
	if f.solved != nil {
		return *f.solved, true
	}
	return f.solve()
}

// checkStep feeds one sample to both fitters and fails the test on the
// first difference in Check, Add, Failed or Solve.
func checkStep(t testing.TB, f *Fitter, ref interface {
	Check([]int64, int64) bool
	Add([]int64, int64) bool
	Solve() (poly.Expr, bool)
}, step int, x []int64, y int64) {
	t.Helper()
	if got, want := f.Check(x, y), ref.Check(x, y); got != want {
		t.Fatalf("sample %d (%v, %d): Check = %v, reference %v", step, x, y, got, want)
	}
	if got, want := f.Add(x, y), ref.Add(x, y); got != want {
		t.Fatalf("sample %d (%v, %d): Add = %v, reference %v", step, x, y, got, want)
	}
	got, gotOK := f.Solve()
	want, wantOK := ref.Solve()
	if gotOK != wantOK || gotOK && !reflect.DeepEqual(got, want) {
		t.Fatalf("sample %d (%v, %d): Solve = %v %v, reference %v %v", step, x, y, got, gotOK, want, wantOK)
	}
}

// diffFit feeds samples (x..., y) to the int64 fitter and the rational
// reference and returns the index of the sample that promoted the
// fitter, or -1 when it stayed on int64 rows.
func diffFit(t testing.TB, m int, samples [][]int64) int {
	t.Helper()
	f, ref := NewFitter(m), &ratFitter{m: m}
	promoted := -1
	for i, s := range samples {
		checkStep(t, f, ref, i, s[:m], s[m])
		if f.Failed() != ref.failed {
			t.Fatalf("sample %d %v: Failed = %v, reference %v", i, s, f.Failed(), ref.failed)
		}
		if f.wide && promoted < 0 {
			promoted = i
		}
		checkCanonical(t, f)
	}
	return promoted
}

// checkCanonical asserts the int64 basis invariant: every row is
// primitive with a positive pivot, the form a restored checkpoint takes.
func checkCanonical(t testing.TB, f *Fitter) {
	t.Helper()
	for i, r := range f.rows {
		var g uint64
		for _, v := range r {
			g = gcd(g, absU(v))
		}
		if g != 1 || r[f.pivot[i]] <= 0 {
			t.Fatalf("basis row %d %v (pivot %d) is not primitive with a positive pivot", i, r, f.pivot[i])
		}
	}
}

// genSamples draws one stream of a random kind: affine, rank-deficient,
// non-affine, affine with a non-integral fit, near ±2^63, small values
// that jump near ±2^63 mid-stream, or one rank short for 200+ samples
// (a coordinate that never varies) until a late contradiction or a late
// rank extension.
func genSamples(r *rand.Rand, m, n int) [][]int64 {
	kind := r.Intn(7)
	c := make([]int64, m+1) // c[m] is the constant
	for i := range c {
		c[i] = r.Int63n(11) - 5
	}
	div := int64(1)
	if kind == 3 {
		div = 2 + r.Int63n(3)
	}
	// Rank-short streams hold coordinate fixed at fixedV, except at
	// sample late: a contradiction (lateKind 1), an extension (2) or
	// nothing (0).
	fixed, fixedV, late, lateKind := -1, r.Int63n(11)-5, -1, 0
	if kind == 6 {
		n = max(n, 200+r.Intn(40))
		if m > 0 {
			fixed = r.Intn(m)
		}
		late, lateKind = n-1-r.Intn(10), r.Intn(3)
	}
	huge := []int64{math.MaxInt64, math.MinInt64, 1 << 62, -1 << 62, math.MaxInt64 / 3}
	out := make([][]int64, 0, n)
	// Non-integral streams redraw x until div divides c·x + k, which
	// never happens for some coefficient choices: bound the draws.
	for draws := 0; len(out) < n && draws < 100*n; draws++ {
		s := make([]int64, m+1)
		y := c[m]
		for i := 0; i < m; i++ {
			switch {
			case i == fixed:
				s[i] = fixedV
				if len(out) == late && lateKind == 2 {
					s[i] += 1 + r.Int63n(3)
				}
			case kind == 1 && i > 0:
				s[i] = int64(i+1)*s[0] + int64(i) // affine in x0
			case kind == 4, kind == 5 && len(out) >= n/2:
				s[i] = huge[r.Intn(len(huge))] - r.Int63n(3) + 1
			default:
				s[i] = r.Int63n(41) - 20
			}
			y += c[i] * s[i]
		}
		switch kind {
		case 2:
			if len(out) > 0 && r.Intn(3) == 0 {
				y += s[0]*s[0] + 1
			}
		case 3:
			if y%div != 0 {
				continue
			}
			y /= div
		case 4:
			y = huge[r.Intn(len(huge))] - r.Int63n(3) + 1
		case 6:
			if len(out) == late && lateKind == 1 {
				y++
			}
		}
		s[m] = y
		out = append(out, s)
	}
	return out
}

// TestFitterDifferential: the int64 fitter decides exactly like rational
// elimination on every kind of stream, including streams that promote
// it to big.Rat rows mid-way.
func TestFitterDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var promoted, midStream int
	for trial := 0; trial < 4000; trial++ {
		m := r.Intn(5)
		samples := genSamples(r, m, 1+r.Intn(24))
		switch p := diffFit(t, m, samples); {
		case p > 0:
			midStream++
			fallthrough
		case p == 0:
			promoted++
		}
	}
	t.Logf("%d of 4000 streams promoted, %d of them mid-stream", promoted, midStream)
	if promoted == 0 || midStream == 0 {
		t.Fatalf("promotion not exercised: %d promoted streams, %d mid-stream", promoted, midStream)
	}
}

// TestFitterHandPicked covers the decisions the random streams may hit
// rarely: a fit that is exact but not integral (y = x/2), a stream that
// never varies a coordinate, a single sample at math.MinInt64, and
// samples whose kernel-test dot products would overflow.
func TestFitterHandPicked(t *testing.T) {
	for name, c := range map[string]struct {
		m       int
		samples [][]int64
	}{
		"half":        {1, [][]int64{{0, 0}, {2, 1}, {4, 2}, {6, 3}}},
		"constant-x1": {2, [][]int64{{0, 5, 1}, {1, 5, 3}, {2, 5, 5}, {7, 5, 15}}},
		"min-int64":   {1, [][]int64{{math.MinInt64, 0}, {0, math.MinInt64}, {1, math.MinInt64}}},
		"overflow-back-elimination": {2, [][]int64{
			{3, 5, 7}, {math.MaxInt64 / 2, 1, 0}, {1, math.MaxInt64 / 3, 2}, {4, 4, 4},
		}},
		// The kernel test of basis {(0,0|0), (2,0|1)} has L = 2: wrapped
		// int64 dot products would take the extension (0, -2^63) for
		// redundant (2·x1 ≡ 0) and the contradiction (-2^63, 0 | 2^62)
		// for redundant (2·y ≡ x0).
		"kernel-dot-overflow-extends":     {2, [][]int64{{0, 0, 0}, {2, 0, 1}, {0, math.MinInt64, 0}, {4, 0, 2}}},
		"kernel-dot-overflow-contradicts": {2, [][]int64{{0, 0, 0}, {2, 0, 1}, {math.MinInt64, 0, 1 << 62}}},
	} {
		t.Run(name, func(t *testing.T) { diffFit(t, c.m, c.samples) })
	}
}

// TestFitterKernelOverflow: a rank-short basis whose kernel test does
// not fit in int64 — the lcm of its pivots, or one null-vector entry —
// falls back to elimination and decides like the rational reference.
func TestFitterKernelOverflow(t *testing.T) {
	const a, b = 1<<32 + 1, 1<<32 - 1 // coprime: a·b > math.MaxInt64
	const e = 1 << 31
	for name, c := range map[string]struct {
		m, prefix int
		samples   [][]int64
	}{
		// Pivots 1, a and b: their lcm a·b overflows.  Then redundant
		// samples and a late rank extension (which solves to 1/a, not
		// integral).
		"lcm": {3, 3, [][]int64{
			{0, 0, 0, 0}, {a, 0, 0, 1}, {0, b, 0, 1},
			{a, b, 0, 2}, {2 * a, 0, 0, 2}, {a, 2 * b, 0, 3}, {0, 0, 1, 5},
		}},
		// Pivots 1, a and 1 (lcm a), but the free column's entry in the
		// row with pivot 1 is e: a·e overflows.  Then redundant
		// samples and a late contradiction.
		"null-vector": {3, 3, [][]int64{
			{0, 0, 0, 0}, {a, 0, 0, 1}, {0, 1, e, 0},
			{0, 2, 2 * e, 0}, {a, 1, e, 1}, {a, 3, 3 * e, 1}, {0, 1, e, 1},
		}},
	} {
		t.Run(name, func(t *testing.T) {
			f := NewFitter(c.m)
			for _, s := range c.samples[:c.prefix] {
				f.Add(s[:c.m], s[c.m])
			}
			s := c.samples[c.prefix]
			f.Check(s[:c.m], s[c.m])
			if f.kernL != -1 {
				t.Fatalf("kernel test built (L = %d), want an overflow", f.kernL)
			}
			diffFit(t, c.m, c.samples)
		})
	}
}

// TestFitterResumeMidStream: a Clone and a State/RestoreFitter round
// trip taken mid-stream, with the kernel test cached, continue exactly
// like the original fitter.
func TestFitterResumeMidStream(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		m := r.Intn(5)
		samples := genSamples(r, m, 1+r.Intn(24))
		cut := r.Intn(len(samples) + 1)
		f := NewFitter(m)
		for _, s := range samples[:cut] {
			f.Add(s[:m], s[m])
		}
		if cut < len(samples) {
			s := samples[cut]
			f.Check(s[:m], s[m]) // caches the kernel test when undetermined
		}
		restored, err := RestoreFitter(f.State())
		if err != nil {
			t.Fatal(err)
		}
		clone := f.Clone()
		// step renders everything a sample decides.
		step := func(g *Fitter, s []int64) string {
			check, add := g.Check(s[:m], s[m]), g.Add(s[:m], s[m])
			fn, ok := g.Solve()
			return fmt.Sprint(check, add, fn, ok)
		}
		for j, s := range samples[cut:] {
			want := step(f, s)
			for name, g := range map[string]*Fitter{"clone": clone, "restored": restored} {
				if got := step(g, s); got != want {
					t.Fatalf("trial %d, sample %d %v after a cut at %d: %s decides %s, original %s", trial, cut+j, s, cut, name, got, want)
				}
			}
		}
		if got, want := fmt.Sprint(clone.State()), fmt.Sprint(f.State()); got != want {
			t.Fatalf("trial %d: clone state %s, original %s", trial, got, want)
		}
	}
}

// TestFitterEliminations: a rank-short label stream (a rectangular 3-deep
// nest whose outer coordinate never varies) eliminates only the samples
// that raise the rank, at most m+1 per label fitter, and the count is
// published once per stream as fold.fitter.eliminations.
func TestFitterEliminations(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	mf := NewMultiFolder(3, 1, 0)
	mf.Obs = reg.Scope()
	for j := int64(0); j < 20; j++ {
		for k := int64(0); k < 30; k++ {
			mf.Add([]int64{5, j, k}, []int64{2*j + 3*k + 7})
		}
	}
	if len(mf.pieces) != 1 {
		t.Fatalf("%d pieces, want 1", len(mf.pieces))
	}
	fit := mf.pieces[0].labelFit[0]
	if fit.solved != nil || len(fit.pivot) != 3 {
		t.Fatalf("label fitter not one rank short: solved=%v rank=%d", fit.solved != nil, len(fit.pivot))
	}
	if fit.eliminations > fit.m+1 {
		t.Fatalf("label fitter ran %d eliminations over %d samples, want at most %d", fit.eliminations, fit.Samples(), fit.m+1)
	}
	p := mf.Finish()
	_, want := mf.pieces[0].fitterCounts()
	if fn := (poly.Expr{C: []int64{0, 2, 3}, K: 7}); p[0].Fn == nil || !reflect.DeepEqual(p[0].Fn.Rows[0], fn) {
		t.Fatalf("piece %s", p[0])
	}
	if got := reg.Counter("fold.fitter.eliminations").Value(); got != want || got == 0 {
		t.Fatalf("fold.fitter.eliminations = %d, want %d", got, want)
	}
}

// decodeSamples turns fuzz bytes into m and a sample stream.  Each value
// takes one tag byte: below 0xf0 it is a small integer in [-8, 7], else
// the next eight bytes are a full-range int64, so the structured
// small-value regime and int64 overflow are both reachable.
func decodeSamples(data []byte) (int, [][]int64) {
	if len(data) == 0 {
		return 0, nil
	}
	m := int(data[0] % 4)
	data = data[1:]
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		tag := data[0]
		data = data[1:]
		if tag < 0xf0 {
			return int64(tag%16) - 8
		}
		var buf [8]byte
		data = data[copy(buf[:], data):]
		return int64(binary.BigEndian.Uint64(buf[:]))
	}
	var samples [][]int64
	for len(data) > 0 && len(samples) < 64 {
		s := make([]int64, m+1)
		for i := range s {
			s[i] = next()
		}
		samples = append(samples, s)
	}
	return m, samples
}

func FuzzFitter(f *testing.F) {
	f.Add([]byte{1, 8, 8, 9, 10, 10, 12})
	f.Add([]byte{2, 8, 8, 8, 9, 8, 10, 8, 9, 11, 12, 12, 1})
	f.Add([]byte{1, 8, 0xff, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 9, 8, 0xff, 0x80, 0, 0, 0, 0, 0, 0, 1})
	// One rank short (m = 3, x2 = 0): y = x0 + x1 + 1, then a late
	// contradiction (1, 2, 0 | 5), or a late extension (0, 0, 1 | 1) and
	// one more sample on the now determined function.
	f.Add([]byte{3, 8, 8, 8, 9, 9, 8, 8, 10, 8, 9, 8, 10, 9, 9, 8, 11, 10, 9, 8, 12, 11, 10, 8, 14, 9, 10, 8, 13})
	f.Add([]byte{3, 8, 8, 8, 9, 9, 8, 8, 10, 8, 9, 8, 10, 9, 9, 8, 11, 10, 9, 8, 12, 11, 10, 8, 14, 8, 8, 9, 9, 9, 9, 9, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, samples := decodeSamples(data)
		diffFit(t, m, samples)
	})
}

// TestFitterSampleAllocs: on the int64 path a sample fed to a
// rank-deficient fitter allocates nothing and runs no elimination once
// the kernel test is built, whether Check accepts or rejects it or Add
// finds it redundant.
func TestFitterSampleAllocs(t *testing.T) {
	f := NewFitter(3)
	f.Add([]int64{0, 7, 7}, 1)
	f.Add([]int64{1, 7, 7}, 3)
	x := []int64{0, 7, 7}
	i := int64(2)
	allocs := testing.AllocsPerRun(200, func() {
		x[0] = i
		if !f.Check(x, 2*i+1) || f.Check(x, 2*i) || !f.Add(x, 2*i+1) {
			t.Fatalf("stream y = 2x+1 rejected at x = %d", i)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per sample, want 0", allocs)
	}
	if f.eliminations != 2 {
		t.Fatalf("%d samples ran elimination, want only the 2 that raised the rank", f.eliminations)
	}
	if f.wide || len(f.rows) != 2 {
		t.Fatalf("fitter left the rank-2 int64 basis: wide=%v rows=%d", f.wide, len(f.rows))
	}
}

// TestWideFitterMetric: a fitter that leaves the int64 path shows up in
// fold.fitters.wide when its stream finishes.
func TestWideFitterMetric(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	for _, label := range []int64{7, math.MinInt64} {
		f := NewFolder(1, 1)
		f.Obs = reg.Scope()
		for i := int64(0); i < 2*smallStreamThreshold; i++ {
			f.Add([]int64{i}, []int64{label})
		}
		if p := f.Finish(); p.Fn == nil || p.Fn.Rows[0].K != label {
			t.Fatalf("label %d: piece %s", label, p)
		}
	}
	if got := reg.Counter("fold.fitters.wide").Value(); got != 1 {
		t.Fatalf("fold.fitters.wide = %d, want 1", got)
	}
}

// rationalStates is testdata/rational_states.json: fitter and folder
// states written by the big.Rat-only fitter, whose basis rows hold
// non-integer "num/den" strings, with the samples that produced each
// state (prefix) and more to feed after restoring it (rest).
type rationalStates struct {
	Fitters []struct {
		M      int         `json:"m"`
		Prefix [][]int64   `json:"prefix"`
		Rest   [][]int64   `json:"rest"`
		State  FitterState `json:"state"`
	} `json:"fitters"`
	Folders []struct {
		Dim    int          `json:"dim"`
		LabelW int          `json:"labelw"`
		Prefix [][2][]int64 `json:"prefix"`
		Rest   [][2][]int64 `json:"rest"`
		State  FolderState  `json:"state"`
	} `json:"folders"`
}

func hasFraction(s FitterState) bool {
	for _, r := range s.Rows {
		for _, v := range r {
			if strings.Contains(v, "/") {
				return true
			}
		}
	}
	return false
}

// TestRestoreFitterRejectsMalformed: checkpoints arrive from the WAL and
// the lease API, so a corrupt fitter state is an error, not a panic on
// the next sample.
func TestRestoreFitterRejectsMalformed(t *testing.T) {
	for name, s := range map[string]FitterState{
		"pivot count":  {M: 1, Rows: [][]string{{"1", "0", "2"}}},
		"short row":    {M: 1, Rows: [][]string{{"1", "0"}}, Pivot: []int{0}},
		"pivot column": {M: 1, Rows: [][]string{{"1", "0", "2"}}, Pivot: []int{2}},
		"zero pivot":   {M: 1, Rows: [][]string{{"0", "1", "2"}}, Pivot: []int{0}},
		"bad rational": {M: 1, Rows: [][]string{{"1", "x/2", "2"}}, Pivot: []int{0}},
	} {
		if _, err := RestoreFitter(s); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
	// Rows beyond int64 stay exact on big.Rat rows.
	huge := FitterState{M: 1, Rows: [][]string{{"1", "0", "1/3"}, {"0", "1", "36893488147419103232"}}, Pivot: []int{0, 1}, NSamples: 2}
	f, err := RestoreFitter(huge)
	if err != nil || !f.wide {
		t.Fatalf("oversized rows: err=%v wide=%v", err, f != nil && f.wide)
	}
	if !reflect.DeepEqual(f.State(), huge) {
		t.Fatalf("oversized rows: state %+v, want %+v", f.State(), huge)
	}
}

// TestRestoreRationalCheckpoints: checkpoints with rational rows restore
// onto int64 rows identical to an uninterrupted fitter's, and the
// resumed fitter then decides every sample the same way.
func TestRestoreRationalCheckpoints(t *testing.T) {
	data, err := os.ReadFile("testdata/rational_states.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx rationalStates
	if err := json.Unmarshal(data, &fx); err != nil {
		t.Fatal(err)
	}
	for i, c := range fx.Fitters {
		if !hasFraction(c.State) {
			t.Fatalf("fitter %d: fixture has no non-integer row", i)
		}
		f, err := RestoreFitter(c.State)
		if err != nil {
			t.Fatalf("fitter %d: %v", i, err)
		}
		if f.wide || len(f.rows) != len(c.State.Rows) {
			t.Fatalf("fitter %d: not restored onto int64 rows (wide=%v)", i, f.wide)
		}
		ref := NewFitter(c.M)
		for _, s := range c.Prefix {
			ref.Add(s[:c.M], s[c.M])
		}
		if got, want := f.State(), ref.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("fitter %d: restored state %+v, uninterrupted %+v", i, got, want)
		}
		for j, s := range c.Rest {
			checkStep(t, f, ref, j, s[:c.M], s[c.M])
		}
	}
	for i, c := range fx.Folders {
		var fraction bool
		for _, s := range c.State.LabelFit {
			fraction = fraction || hasFraction(s)
		}
		if !fraction {
			t.Fatalf("folder %d: fixture has no non-integer label row", i)
		}
		f, err := RestoreFolder(c.State)
		if err != nil {
			t.Fatalf("folder %d: %v", i, err)
		}
		if wide, _ := f.fitterCounts(); wide != 0 {
			t.Fatalf("folder %d: %d fitters restored onto big.Rat rows", i, wide)
		}
		ref := NewFolder(c.Dim, c.LabelW)
		for _, p := range c.Prefix {
			ref.Add(p[0], p[1])
		}
		got, _ := json.Marshal(f.State())
		want, _ := json.Marshal(ref.State())
		if string(got) != string(want) {
			t.Fatalf("folder %d: restored state\n%s\nuninterrupted\n%s", i, got, want)
		}
		for _, p := range c.Rest {
			f.Add(p[0], p[1])
			ref.Add(p[0], p[1])
		}
		if got, want := pieceKey(f.Finish()), pieceKey(ref.Finish()); got != want {
			t.Fatalf("folder %d: resumed %s, uninterrupted %s", i, got, want)
		}
	}
}
