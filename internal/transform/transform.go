// Package transform closes the profile-guided-optimization loop: it
// takes the schedules internal/sched suggests from the folded DDG,
// applies them to the ISA program as IR-to-IR rewrites (loop
// interchange and rectangular tiling on perfectly nested counted-loop
// bands), re-executes the rewritten program under the VM cycle/cache
// model, and attaches the *measured* speedup to the report.
//
// Every candidate goes through three gates before a number is reported:
//
//  1. Structure: the suggested band must map onto a canonical
//     perfectly-nested counted-loop chain in the ISA program
//     (rectangular bounds, single-block body, no calls).  Anything
//     else is refused with a structured reason.
//  2. Legality: every folded dependence under the nest must stay
//     lexicographically non-negative under the new schedule, judged
//     from the folded-DDG distance bounds.  Over-approximated (star)
//     dependences and degraded runs refuse conservatively.
//  3. Verification: the transformed program is executed and its entire
//     final memory image must be bit-identical to the original's — a
//     mismatch fails the run with an *OracleError, it is never
//     reported as a result.
package transform

import (
	"fmt"
	"sort"
	"strings"

	"polyprof/internal/budget"
	"polyprof/internal/cachesim"
	"polyprof/internal/cfg"
	"polyprof/internal/core"
	"polyprof/internal/faultinject"
	"polyprof/internal/obs"
	"polyprof/internal/sched"
)

// Fault points: transform.apply injects at schedule application (after
// legality, before codegen), transform.verify at the output-equality
// oracle.  Error injections fail the optimize stage; panic injections
// are contained by Optimize's stage recovery as a *core.StagePanic.
var (
	applyFault  = faultinject.Point("transform.apply")
	verifyFault = faultinject.Point("transform.verify")
)

// Structured refusal codes.  A refusal is a first-class result: the
// engine must never silently apply a schedule it cannot prove legal,
// and must never silently drop one either.
const (
	// RefuseDegradedDDG: the run's DDG was degraded (over-approximated
	// under resource pressure); distances may be missing, so nothing
	// can be proven legal.
	RefuseDegradedDDG = "degraded-ddg"
	// RefuseStarDep: a dependence's map or domain was over-approximated
	// (every direction must be assumed).
	RefuseStarDep = "star-dependence"
	// RefuseNegativeDistance: some dependence distance would become
	// lexicographically negative under the new schedule.
	RefuseNegativeDistance = "negative-distance"
	// RefuseNonCanonical: a loop of the band is not a canonical
	// counted loop (lower-bound init, CmpLT header, constant positive
	// step latch).
	RefuseNonCanonical = "non-canonical-loop"
	// RefuseNonRectangular: a loop bound or hoisted setup value is
	// written inside the nest (e.g. a triangular inner bound).
	RefuseNonRectangular = "non-rectangular-bounds"
	// RefuseImperfect: statements execute between the loops of the
	// band (imperfect nesting), or the body spans several blocks.
	RefuseImperfect = "imperfect-nest"
	// RefusePartialBand: the permutable band does not reach the
	// innermost dimension, so the rewrite would have to move an
	// unanalyzed inner loop.
	RefusePartialBand = "partial-band"
	// RefuseContextConflict: the same static nest was suggested
	// conflicting schedules from different dynamic contexts.
	RefuseContextConflict = "context-conflict"
	// RefuseNeedsSkew: the suggestion relies on skewing, which the
	// rectangular rewriter does not implement.
	RefuseNeedsSkew = "needs-skew"
	// RefuseRecursive: a band dimension is a recursive component, not
	// a CFG loop.
	RefuseRecursive = "recursive-dimension"
)

// Refusal is a structured reason a transformation was not applied.
type Refusal struct {
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
}

func (r *Refusal) String() string {
	if r.Detail == "" {
		return r.Code
	}
	return r.Code + ": " + r.Detail
}

func refuse(code, format string, args ...any) *Refusal {
	return &Refusal{Code: code, Detail: fmt.Sprintf(format, args...)}
}

// DefaultTileSize is the rectangular tile edge when Options.TileSize
// is zero — small enough that the bundled (scaled-down) workloads get
// several tiles per dimension.
const DefaultTileSize = 8

// DefaultMeasureCache returns the cache configuration measurement runs
// use: 16 sets x 2 ways x 4-word lines = 128 words.  The bundled
// workloads are scaled far below real problem sizes, so a real 32KiB
// L1 would hold entire arrays and hide every locality effect the
// transformations exist to exploit; a proportionally scaled cache
// keeps the measured ratios meaningful.
func DefaultMeasureCache() cachesim.Config {
	return cachesim.Config{LineWords: 4, Sets: 16, Ways: 2, HitLatency: 4, MissLatency: 60}
}

// Options configures an Optimize run.
type Options struct {
	// TileSize is the rectangular tile edge (DefaultTileSize when 0).
	TileSize int
	// Cache is the cache model measurement runs execute under
	// (DefaultMeasureCache when zero-valued).
	Cache cachesim.Config
	// Obs receives per-candidate spans and metrics.
	Obs obs.Scope
	// Budget, when set, governs the measurement re-executions exactly
	// like the profiled run: step limits tighten the VM cap and
	// cancellation/deadline aborts the stage.
	Budget *budget.Budget
}

// Report is the result of one Optimize run, embedded into the feedback
// report JSON under "optimization".
type Report struct {
	Program  string          `json:"program"`
	TileSize int             `json:"tile_size"`
	Cache    cachesim.Config `json:"cache"`

	// Refused is set when the whole run was conservatively refused
	// (degraded DDG) before any candidate was considered.
	Refused *Refusal `json:"refused,omitempty"`

	// Baseline is the original program's measurement; all speedups are
	// ratios against it.
	Baseline *Measurement `json:"baseline,omitempty"`

	Candidates []*Candidate `json:"candidates,omitempty"`

	// BestSpeedup is the largest measured speedup over all applied and
	// verified variants (0 when none applied), and Best names it.
	BestSpeedup float64 `json:"best_speedup,omitempty"`
	Best        string  `json:"best,omitempty"`
}

// Candidate is one static loop nest a schedule was suggested for.
// Several dynamic nest contexts (the same loops reached through
// different call paths) collapse into one candidate and must agree on
// the schedule.
type Candidate struct {
	// Nest is the source reference of the nest in original dimension
	// order, e.g. "backprop.c:(320,322)".
	Nest string `json:"nest"`
	// Suggested is the scheduler's description of the suggestion.
	Suggested string `json:"suggested"`
	// Depth and BandStart delimit the band: dimensions
	// [BandStart, Depth) are rewritten.
	Depth     int `json:"depth"`
	BandStart int `json:"band_start"`
	// Contexts counts the dynamic nest contexts that map to this
	// static nest.
	Contexts int `json:"contexts"`
	// Ops is the dynamic operation count under the nest (all contexts).
	Ops uint64 `json:"ops"`
	// Refused is set when the candidate failed a structural gate; no
	// variants are attempted then.
	Refused  *Refusal   `json:"refused,omitempty"`
	Variants []*Variant `json:"variants,omitempty"`

	info *nestInfo    // recognized structure (nil when Refused)
	deps []*sched.Dep // union of deps under all contexts
	sugg *sched.NestTransform
}

// VariantSpec names one concrete transformation of a candidate.
type VariantSpec struct {
	// Interchange applies the permutation Perm to the band.
	Interchange bool `json:"interchange"`
	// Tile strip-mines every band dimension by TileSize and orders the
	// tile loops (by Perm when Interchange is also set).
	Tile bool `json:"tile"`
	// Perm is the band order as absolute dimension indices
	// (identity when nil).
	Perm []int `json:"perm,omitempty"`
}

// Kind renders the spec as a stable label.
func (s VariantSpec) Kind() string {
	switch {
	case s.Interchange && s.Tile:
		return "interchange+tile"
	case s.Tile:
		return "tile"
	default:
		return "interchange"
	}
}

// Measurement is one program execution under the cycle/cache model.
type Measurement struct {
	Cycles      uint64 `json:"cycles"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	mem []uint64 // final memory image, for the oracle
}

// Variant is one attempted transformation of a candidate.
type Variant struct {
	Kind string `json:"kind"`
	// Perm is the band order applied (absolute dimension indices).
	Perm     []int `json:"perm,omitempty"`
	TileSize int   `json:"tile_size,omitempty"`
	// Refused is set when the legality check rejected the schedule.
	Refused *Refusal `json:"refused,omitempty"`
	// Applied: the rewrite was performed and executed.  Verified: the
	// output-equality oracle passed (bit-identical final memory).
	Applied  bool `json:"applied"`
	Verified bool `json:"verified"`
	// Measured is the transformed program's execution, and
	// MeasuredSpeedup the baseline/transformed cycle ratio.
	Measured        *Measurement `json:"measured,omitempty"`
	MeasuredSpeedup float64      `json:"measured_speedup,omitempty"`
}

// Optimize is the transform stage: it applies the suggested schedules
// to the profiled program and measures them, under a "transform" span
// in opts.Obs with the stage's panic recovery (a panic fails the stage
// as a *core.StagePanic).  It returns a report even when every
// candidate is refused; it returns an error only for hard failures
// (budget abort, injected fault, VM error, a contained panic, or an
// oracle mismatch — an *OracleError).
func Optimize(p *core.Profile, m *sched.Model, suggestions []*sched.NestTransform, opts Options) (rep *Report, err error) {
	sp := opts.Obs.StartSpan("transform")
	defer sp.End()
	defer core.RecoverStage("transform", sp, &err)
	opts.Obs = opts.Obs.WithSpan(sp)
	rep, err = optimize(p, m, suggestions, opts)
	sp.Fail(err)
	return rep, err
}

func optimize(p *core.Profile, m *sched.Model, suggestions []*sched.NestTransform, opts Options) (*Report, error) {
	if opts.TileSize <= 0 {
		opts.TileSize = DefaultTileSize
	}
	if opts.Cache == (cachesim.Config{}) {
		opts.Cache = DefaultMeasureCache()
	}
	rep := &Report{
		Program:  p.Prog.Name,
		TileSize: opts.TileSize,
		Cache:    opts.Cache,
	}
	if d := p.DDG.Degraded; d != nil {
		// A degraded DDG may be missing distance information entirely
		// (coarse regions fold to star deps, budgets may have stopped
		// tracking).  Nothing can be proven legal; refuse everything.
		rep.Refused = refuse(RefuseDegradedDDG,
			"DDG degraded (budgets %s): distances are over-approximated, refusing all transformations",
			strings.Join(d.Budgets, ","))
		opts.Obs.Add("transform.refused_degraded", 1)
		return rep, nil
	}

	cands := groupCandidates(p, m, suggestions)
	rep.Candidates = cands
	if len(cands) == 0 {
		return rep, nil
	}

	// One baseline execution serves every candidate: measurement runs
	// are whole-program, so the ratio isolates the rewritten nest only
	// through its share of total cycles — exactly what an end user of
	// the optimized program would observe.
	base, err := measure(p.Prog, opts)
	if err != nil {
		return rep, fmt.Errorf("transform: baseline execution: %w", err)
	}
	rep.Baseline = base

	for _, c := range cands {
		if c.Refused != nil {
			opts.Obs.Add("transform.candidates_refused", 1)
			continue
		}
		if err := optimizeCandidate(p, c, base, rep, opts); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// optimizeCandidate attempts every variant of one candidate under its
// own span.
func optimizeCandidate(p *core.Profile, c *Candidate, base *Measurement, rep *Report, opts Options) error {
	sp := opts.Obs.StartSpan("transform:" + c.Nest)
	defer sp.End()
	sc := opts.Obs.WithSpan(sp)

	for _, spec := range candidateSpecs(c) {
		v, err := applyVariant(p, c, spec, base, Options{
			TileSize: opts.TileSize, Cache: opts.Cache, Obs: sc, Budget: opts.Budget,
		})
		if err != nil {
			sp.Fail(err)
			return err
		}
		c.Variants = append(c.Variants, v)
		switch {
		case v.Refused != nil:
			sc.Add("transform.variants_refused", 1)
		case v.Verified:
			sc.Add("transform.variants_verified", 1)
			if v.MeasuredSpeedup > rep.BestSpeedup {
				rep.BestSpeedup = v.MeasuredSpeedup
				rep.Best = fmt.Sprintf("%s %s", c.Nest, v.Kind)
			}
		}
	}
	return nil
}

// candidateSpecs derives the variants worth measuring from the
// scheduler suggestion: interchange when the suggested order differs
// from identity, tiling when the band is tilable, and the combination
// when both hold.
func candidateSpecs(c *Candidate) []VariantSpec {
	t := c.sugg
	perm := bandPerm(t)
	var specs []VariantSpec
	if t.Interchange {
		specs = append(specs, VariantSpec{Interchange: true, Perm: perm})
	}
	if t.Tilable() {
		specs = append(specs, VariantSpec{Tile: true})
		if t.Interchange {
			specs = append(specs, VariantSpec{Interchange: true, Tile: true, Perm: perm})
		}
	}
	return specs
}

// bandPerm extracts the band-dimension order (absolute indices) from
// the suggestion's full permutation.
func bandPerm(t *sched.NestTransform) []int {
	var perm []int
	for _, k := range t.Perm {
		if k >= t.BandStart {
			perm = append(perm, k)
		}
	}
	return perm
}

// groupCandidates deduplicates suggestions by static nest: the same
// loops reached through different dynamic contexts (e.g. a function
// called twice) produce one candidate whose legality is judged against
// the union of both contexts' dependences.
func groupCandidates(p *core.Profile, m *sched.Model, suggestions []*sched.NestTransform) []*Candidate {
	byKey := map[string]*Candidate{}
	var order []string
	for _, t := range suggestions {
		if !t.Interchange && !t.Tilable() {
			continue // nothing suggested for this nest
		}
		depth := t.Nest.Depth()
		if t.BandLen < 1 || t.BandStart >= depth {
			continue
		}
		key, keyRef := nestKey(p, t)
		c := byKey[key]
		if c == nil {
			c = &Candidate{
				Nest:      keyRef,
				Suggested: t.Describe(),
				Depth:     depth,
				BandStart: t.BandStart,
				sugg:      t,
			}
			byKey[key] = c
			order = append(order, key)
			c.Refused = vetCandidate(p, m, c, t)
		} else {
			// A second dynamic context over the same static loops: the
			// schedules must agree or the candidate is refused — the
			// rewrite is static and applies to every context at once.
			if c.Refused == nil && !sameSchedule(c.sugg, t) {
				c.Refused = refuse(RefuseContextConflict,
					"dynamic contexts disagree on the schedule (%q vs %q)", c.sugg.Describe(), t.Describe())
			}
			if c.Refused == nil {
				c.deps = unionDeps(c.deps, m.DepsUnder(t.Nest.Loops[t.BandStart]))
			}
		}
		c.Contexts++
		if len(t.Nest.Loops) > 0 {
			c.Ops += t.Nest.Loops[0].TotalOps
		}
	}
	cands := make([]*Candidate, 0, len(order))
	for _, k := range order {
		cands = append(cands, byKey[k])
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Ops > cands[j].Ops })
	return cands
}

// vetCandidate runs the structural gates that are independent of the
// concrete variant: band reach, loop canonicality, perfect nesting.
// On success it fills c.info and c.deps.
func vetCandidate(p *core.Profile, m *sched.Model, c *Candidate, t *sched.NestTransform) *Refusal {
	if t.SkewUsed {
		return refuse(RefuseNeedsSkew,
			"suggested band requires skewing, which the rectangular rewriter does not implement")
	}
	return vetStructure(p, m, c, t)
}

// vetStructure is vetCandidate without the skew gate; the forced
// ApplySpec path uses it directly (legality still judges the raw
// distances, so a skew-requiring nest refuses there instead).
func vetStructure(p *core.Profile, m *sched.Model, c *Candidate, t *sched.NestTransform) *Refusal {
	depth := t.Nest.Depth()
	if t.BandStart+t.BandLen != depth {
		return refuse(RefusePartialBand,
			"permutable band [%d,%d) stops above the innermost dimension %d",
			t.BandStart, t.BandStart+t.BandLen, depth-1)
	}
	if t.BandLen < 2 && !t.Tilable() {
		return refuse(RefusePartialBand, "band of depth %d has nothing to reorder", t.BandLen)
	}
	loops := make([]*cfg.Loop, 0, t.BandLen)
	for k := t.BandStart; k < depth; k++ {
		el := t.Nest.Loops[k].Elem
		if el.Loop == nil {
			return refuse(RefuseRecursive, "dimension %d is a recursive component, not a CFG loop", k)
		}
		loops = append(loops, el.Loop)
	}
	info, ref := recognize(p.Prog, loops)
	if ref != nil {
		return ref
	}
	c.info = info
	c.deps = unionDeps(nil, m.DepsUnder(t.Nest.Loops[t.BandStart]))
	return nil
}

// sameSchedule reports whether two suggestions agree where the rewrite
// cares: band placement and dimension order.
func sameSchedule(a, b *sched.NestTransform) bool {
	if a.BandStart != b.BandStart || a.BandLen != b.BandLen || a.Nest.Depth() != b.Nest.Depth() {
		return false
	}
	if len(a.Perm) != len(b.Perm) {
		return false
	}
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			return false
		}
	}
	return true
}

// unionDeps merges dep slices, deduplicating by pointer.
func unionDeps(dst, src []*sched.Dep) []*sched.Dep {
	seen := make(map[*sched.Dep]bool, len(dst))
	for _, d := range dst {
		seen[d] = true
	}
	for _, d := range src {
		if !seen[d] {
			seen[d] = true
			dst = append(dst, d)
		}
	}
	return dst
}

// nestKey identifies the static nest by the header blocks of its band
// loops, and renders the matching source reference.
func nestKey(p *core.Profile, t *sched.NestTransform) (key, ref string) {
	depth := t.Nest.Depth()
	ids := make([]string, 0, depth)
	file := ""
	lines := make([]string, 0, depth)
	for k := 0; k < depth; k++ {
		el := t.Nest.Loops[k].Elem
		if el.Loop == nil {
			ids = append(ids, "R")
			lines = append(lines, "?")
			continue
		}
		ids = append(ids, fmt.Sprintf("b%d", el.Loop.Header))
		blk := p.Prog.Block(el.Loop.Header)
		line := 0
		if len(blk.Code) > 0 {
			line = blk.Code[0].Loc.Line
			if file == "" {
				file = blk.Code[0].Loc.File
			}
		}
		lines = append(lines, fmt.Sprintf("%d", line))
	}
	if file == "" {
		file = "?"
	}
	return strings.Join(ids, ","), fmt.Sprintf("%s:(%s)", file, strings.Join(lines, ","))
}

// applyVariant runs one variant end to end: legality, rewrite,
// execution, oracle.
func applyVariant(p *core.Profile, c *Candidate, spec VariantSpec, base *Measurement, opts Options) (*Variant, error) {
	v := &Variant{Kind: spec.Kind(), Perm: spec.Perm}
	if spec.Tile {
		v.TileSize = opts.TileSize
	}

	sp := opts.Obs.StartSpan("transform-apply:" + v.Kind)
	order := spec.Perm
	if order == nil {
		order = identityOrder(c.BandStart, c.Depth)
	}
	if ref := checkLegal(c.deps, c.BandStart, c.Depth, order, spec.Tile); ref != nil {
		sp.End()
		v.Refused = ref
		return v, nil
	}
	if err := applyFault.Hit(); err != nil {
		sp.Fail(err)
		sp.End()
		return nil, fmt.Errorf("transform: apply %s at %s: %w", v.Kind, c.Nest, err)
	}
	prog, err := rewrite(p.Prog, c.info, spec, opts.TileSize)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("transform: rewrite %s at %s: %w", v.Kind, c.Nest, err)
	}
	v.Applied = true

	vsp := opts.Obs.StartSpan("transform-verify:" + v.Kind)
	defer vsp.End()
	if err := verifyFault.Hit(); err != nil {
		vsp.Fail(err)
		return nil, fmt.Errorf("transform: verify %s at %s: %w", v.Kind, c.Nest, err)
	}
	meas, err := measure(prog, opts)
	if err != nil {
		vsp.Fail(err)
		return nil, fmt.Errorf("transform: execute %s at %s: %w", v.Kind, c.Nest, err)
	}
	v.Measured = meas
	if err := verifyOutputs(p.Prog.Name, c.Nest, v.Kind, base, meas); err != nil {
		vsp.Fail(err)
		opts.Obs.Add("transform.verify_failures", 1)
		return nil, err
	}
	v.Verified = true
	if meas.Cycles > 0 {
		v.MeasuredSpeedup = float64(base.Cycles) / float64(meas.Cycles)
	}
	return v, nil
}

// ApplySpec forces one concrete variant onto a suggested nest,
// bypassing the scheduler's choice of schedule but none of the gates:
// the structural recognition, the legality check against the folded
// DDG, and the output-equality oracle all still run.  Tests use it to
// pin down refusals for schedules the scheduler itself would never
// suggest (e.g. an interchange that violates a loop-carried
// dependence).
func ApplySpec(p *core.Profile, m *sched.Model, t *sched.NestTransform, spec VariantSpec, opts Options) (*Variant, error) {
	if opts.TileSize <= 0 {
		opts.TileSize = DefaultTileSize
	}
	if opts.Cache == (cachesim.Config{}) {
		opts.Cache = DefaultMeasureCache()
	}
	v := &Variant{Kind: spec.Kind(), Perm: spec.Perm}
	if d := p.DDG.Degraded; d != nil {
		v.Refused = refuse(RefuseDegradedDDG,
			"DDG degraded (budgets %s): distances are over-approximated", strings.Join(d.Budgets, ","))
		return v, nil
	}
	c := &Candidate{Depth: t.Nest.Depth(), BandStart: t.BandStart, sugg: t}
	_, c.Nest = nestKey(p, t)
	if ref := vetStructure(p, m, c, t); ref != nil {
		v.Refused = ref
		return v, nil
	}
	base, err := measure(p.Prog, opts)
	if err != nil {
		return nil, fmt.Errorf("transform: baseline execution: %w", err)
	}
	return applyVariant(p, c, spec, base, opts)
}

func identityOrder(bandStart, depth int) []int {
	order := make([]int, 0, depth-bandStart)
	for k := bandStart; k < depth; k++ {
		order = append(order, k)
	}
	return order
}
