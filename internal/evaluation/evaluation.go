// Package evaluation drives the paper's experiments end-to-end: it
// profiles each bundled workload through the full polyprof pipeline,
// runs the static baseline, and assembles the rows of the evaluation
// tables (Table 5 summary statistics, Table 3/4 case studies) and the
// annotated flame graphs.
package evaluation

import (
	"fmt"
	"strings"

	"polyprof/internal/core"
	"polyprof/internal/feedback"
	"polyprof/internal/obs"
	"polyprof/internal/sched"
	"polyprof/internal/staticpoly"
	"polyprof/internal/transform"
	"polyprof/internal/workloads"
)

// BenchResult bundles everything the harness derives for one workload.
type BenchResult struct {
	Spec    workloads.Spec
	Profile *core.Profile
	Report  *feedback.Report
	Static  *staticpoly.Result
	// Optimize is the schedule-application engine's result: applied
	// variants with verified measured speedups, or structured refusals.
	Optimize *transform.Report
	Row      Table5Row
}

// Table5Row is one line of the paper's Table 5.
type Table5Row struct {
	Name   string
	Ops    uint64
	MemOps uint64

	PctAff  float64
	Region  string
	PctOps  float64
	PctMops float64
	PctFPop float64

	Interproc    bool
	PollyReasons string
	PaperReasons string
	PollyModeled bool

	Skew                                 bool
	PctPar, PctSIMD, PctReuse, PctPReuse float64
	LdSrc, LdBin, TileD                  int
	PctTile                              float64
	Components, FusedComponents          int
	Fusion                               string
	HasTransform                         bool

	// MeasuredSpeedup is the best verified cycle-model speedup the
	// transform engine measured after actually applying a suggested
	// schedule (0 when nothing was applied), and MeasuredKind names the
	// winning variant ("interchange", "tile", "interchange+tile").
	MeasuredSpeedup float64
	MeasuredKind    string
}

// RunWorkload profiles one workload and assembles its row.  A
// "workload:<name>" span in the default registry encloses every
// pipeline stage.
func RunWorkload(spec workloads.Spec) (*BenchResult, error) {
	var sc obs.Scope
	sp := sc.StartSpan("workload:" + spec.Name)
	defer sp.End()
	wsc := sc.WithSpan(sp)
	prog := spec.Build()
	opts := core.DefaultRunOptions()
	opts.Obs = wsc
	p, err := core.Run(prog, opts)
	if err != nil {
		sp.Fail(err)
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	sp.AddEvents(p.DDG.TotalOps)
	rep := feedback.Analyze(p)
	stSp := wsc.StartSpan("static-baseline")
	st := staticpoly.Analyze(prog)
	stSp.End()

	row := Table5Row{
		Name:         spec.Name,
		Ops:          p.DDG.TotalOps,
		MemOps:       p.DDG.MemOps,
		PctAff:       rep.PctAffine,
		PaperReasons: spec.PaperReasons,
		PollyReasons: st.RegionReasons(prog, spec.RegionFuncs...).String(),
		PollyModeled: st.RegionModeled(prog, spec.RegionFuncs...),
	}
	if reg := rep.Best; reg != nil {
		row.HasTransform = true
		row.Region = reg.CodeRef
		row.PctOps = reg.PctOps
		if reg.Ops > 0 {
			row.PctMops = float64(reg.MemOps) / float64(reg.Ops)
			row.PctFPop = float64(reg.FPOps) / float64(reg.Ops)
		}
		row.Interproc = reg.Interproc
		met := rep.ComputeMetrics(reg)
		row.Skew = met.Skew
		row.PctPar = met.PctParallelOps
		row.PctSIMD = met.PctSIMDOps
		row.PctReuse = met.PctReuse
		row.PctPReuse = met.PctPReuse
		row.LdSrc = met.LdSrc
		row.LdBin = met.LdBin
		row.TileD = met.TileD
		row.PctTile = met.PctTileOps
		row.Components = reg.Components
		row.FusedComponents = reg.FusedComponents
		row.Fusion = reg.Fusion.String()
	}
	// Close the loop: apply the suggested schedules and measure them.
	// A hard failure here (oracle mismatch, VM error) fails the
	// workload — a transformation that breaks program outputs must
	// never be summarized away.
	opt, err := transform.Optimize(p, rep.Model, rep.AllTransforms(), transform.Options{Obs: wsc})
	if err != nil {
		sp.Fail(err)
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	row.MeasuredSpeedup = opt.BestSpeedup
	if opt.BestSpeedup > 0 {
		row.MeasuredKind = bestKind(opt)
	}
	return &BenchResult{Spec: spec, Profile: p, Report: rep, Static: st, Optimize: opt, Row: row}, nil
}

// bestKind names the variant behind Report.BestSpeedup.
func bestKind(opt *transform.Report) string {
	for _, c := range opt.Candidates {
		for _, v := range c.Variants {
			if v.Verified && v.MeasuredSpeedup == opt.BestSpeedup {
				return v.Kind
			}
		}
	}
	return ""
}

// RunRodinia profiles the whole suite (Experiment I + II).
func RunRodinia() ([]*BenchResult, error) {
	var out []*BenchResult
	for _, spec := range workloads.Rodinia() {
		r, err := RunWorkload(spec)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

// RenderTable5 prints the suite summary in the layout of the paper's
// Table 5 (one line per benchmark).
func RenderTable5(rows []*BenchResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %9s %9s %5s  %-22s %5s %6s %7s %9s %6s %5s %5s %6s %7s %7s %3s %3s %3s %7s %2s %5s %6s %9s\n",
		"benchmark", "#Ops", "#Mops", "%Aff", "Region", "%ops", "%Mops", "%FPops",
		"interproc", "Polly", "skew", "%par", "%simd", "%reuse", "%Preuse",
		"lds", "ldb", "TlD", "%Tilops", "C", "Comp", "fusion", "measured")
	for _, r := range rows {
		row := r.Row
		if !row.HasTransform {
			fmt.Fprintf(&sb, "%-14s %9d %9d %5s  %-22s (no transformable region; Polly: %s)\n",
				row.Name, row.Ops, row.MemOps, pct(row.PctAff), "-", row.PollyReasons)
			continue
		}
		measured := "-"
		if row.MeasuredSpeedup > 0 {
			measured = fmt.Sprintf("%.2fx", row.MeasuredSpeedup)
		}
		fmt.Fprintf(&sb, "%-14s %9d %9d %5s  %-22s %5s %6s %7s %9s %6s %5s %5s %6s %7s %7s %3s %3s %3s %7s %2d %5d %6s %9s\n",
			row.Name, row.Ops, row.MemOps, pct(row.PctAff), row.Region,
			pct(row.PctOps), pct(row.PctMops), pct(row.PctFPop),
			yn(row.Interproc), row.PollyReasons, yn(row.Skew),
			pct(row.PctPar), pct(row.PctSIMD), pct(row.PctReuse), pct(row.PctPReuse),
			fmt.Sprintf("%dD", row.LdSrc), fmt.Sprintf("%dD", row.LdBin), fmt.Sprintf("%dD", row.TileD),
			pct(row.PctTile), row.Components, row.FusedComponents, row.Fusion, measured)
	}
	return sb.String()
}

// CaseStudyRow is one line of Table 3 (backprop) or Table 4 (GemsFDTD).
type CaseStudyRow struct {
	Region      string
	PctOps      float64
	Transform   string
	Parallel    []bool
	Permutable  bool
	Stride01    []float64
	TileD       int
	SpeedupEst  float64
	SpeedupNote string
}

// CaseStudy profiles a workload and extracts the case-study rows for
// its heaviest nests (at least minShare of region operations).
func CaseStudy(spec workloads.Spec, minShare float64) (*BenchResult, []CaseStudyRow, error) {
	r, err := RunWorkload(spec)
	if err != nil {
		return nil, nil, err
	}
	reg := r.Report.Best
	if reg == nil {
		return r, nil, nil
	}
	// The twins run at laptop scale, so the replay cache is scaled down
	// with them (8 KiB, 8-word lines) to preserve the paper's
	// working-set-to-cache ratios, and tiles are sized to fit it.
	cm := feedback.DefaultCostModel()
	cm.Cache.Sets = 16
	cm.Cache.Ways = 8
	cm.TileSize = 8
	var rows []CaseStudyRow
	for _, t := range reg.Transforms {
		nestOps := t.Nest.Loops[len(t.Nest.Loops)-1].TotalOps
		if float64(nestOps) < minShare*float64(reg.Ops) {
			continue
		}
		if t.Describe() == "none" {
			continue
		}
		row := CaseStudyRow{
			Region:     nestRef(r.Profile, t),
			PctOps:     float64(nestOps) / float64(r.Profile.DDG.TotalOps),
			Transform:  t.Describe(),
			Parallel:   t.Parallel,
			Permutable: t.FullyPermutable(),
			Stride01:   t.Stride01,
			TileD:      t.TileDepth(),
		}
		if sp, err := r.Report.EstimateSpeedup(t, cm); err == nil {
			row.SpeedupEst = sp.Factor
			row.SpeedupNote = sp.String()
		} else {
			row.SpeedupNote = err.Error()
		}
		rows = append(rows, row)
	}
	return r, rows, nil
}

// nestRef renders the source lines of a nest's dimensions in the
// *suggested* order, mirroring the paper's "backprop.c:(254,253)"
// permutation-of-code-lines notation.
func nestRef(p *core.Profile, t *sched.NestTransform) string {
	file := ""
	lines := make([]string, 0, len(t.Perm))
	for _, k := range t.Perm {
		node := t.Nest.Loops[k]
		line := 0
		if l := node.Elem.Loop; l != nil {
			blk := p.Prog.Block(l.Header)
			if len(blk.Code) > 0 {
				line = blk.Code[0].Loc.Line
				if file == "" {
					file = blk.Code[0].Loc.File
				}
			}
		}
		lines = append(lines, fmt.Sprintf("%d", line))
	}
	if file == "" {
		file = "?"
	}
	return fmt.Sprintf("%s:(%s)", file, strings.Join(lines, ","))
}
