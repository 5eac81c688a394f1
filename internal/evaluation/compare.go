package evaluation

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"
)

// BenchMeta describes the machine and revision that produced a
// BENCH_overhead.json baseline, so regression comparisons can flag
// apples-to-oranges runs instead of silently mixing them.
type BenchMeta struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Go         string `json:"go"`
	Rev        string `json:"rev,omitempty"`
	Timestamp  string `json:"timestamp"`
}

// BenchBaseline is a parsed per-stage ns/op baseline.  Two encodings
// load: the {"meta": ..., "stages": {...}} bench emission (this struct's
// own JSON form) and an `overhead -json` report list (whose stage walls
// are summed into the bench stage names).
type BenchBaseline struct {
	Meta   *BenchMeta       `json:"meta,omitempty"`
	Stages map[string]int64 `json:"stages"`
}

// benchStageMap translates bench-harness stage names to the overhead
// report stages they cover.  The bench's pass2-full-ddg iteration runs
// the DDG pass and the terminal fold drain in one timed loop, so it
// compares against the sum of both rows; likewise scheduler-feedback.
var benchStageMap = []struct {
	Bench  string
	Stages []string
}{
	{"pass1-structure", []string{"pass1"}},
	{"pass2-iiv-only", []string{"pass2-iiv"}},
	{"pass2-full-ddg", []string{"ddg", "fold"}},
	{"scheduler-feedback", []string{"sched", "feedback"}},
}

// LoadBaseline parses either supported baseline encoding.
func LoadBaseline(data []byte) (*BenchBaseline, error) {
	var b BenchBaseline
	if err := json.Unmarshal(data, &b); err == nil && len(b.Stages) > 0 {
		return &b, nil
	}
	var reps []*OverheadReport
	if err := json.Unmarshal(data, &reps); err == nil && len(reps) > 0 {
		stages := map[string]int64{}
		for _, r := range reps {
			for _, m := range benchStageMap {
				for _, st := range m.Stages {
					stages[m.Bench] += int64(r.Stage(st).Wall)
				}
			}
		}
		return &BenchBaseline{Stages: stages}, nil
	}
	return nil, fmt.Errorf("baseline: not a bench emission or overhead report list")
}

// StageDelta is one stage's baseline-vs-current comparison.
type StageDelta struct {
	Stage string `json:"stage"`
	// OldNS is the baseline's wall nanoseconds; NewNS is the median of
	// the current runs and SpreadNS their interquartile range.
	OldNS    int64 `json:"old_ns"`
	NewNS    int64 `json:"new_ns"`
	SpreadNS int64 `json:"spread_ns"`
	// Ratio is NewNS/OldNS (1.0 = unchanged).
	Ratio float64 `json:"ratio"`
	// Regressed marks Ratio > 1 + tolerance by more than SpreadNS.
	Regressed bool `json:"regressed"`
}

// CompareResult is the outcome of an overhead regression check.
type CompareResult struct {
	Workload    string       `json:"workload"`
	Runs        int          `json:"runs"`
	Tolerance   float64      `json:"tolerance"`
	Deltas      []StageDelta `json:"deltas"`
	Regressions int          `json:"regressions"`
}

// Err returns a non-nil error when any stage regressed, for a nonzero
// CLI exit.
func (c *CompareResult) Err() error {
	if c.Regressions == 0 {
		return nil
	}
	return fmt.Errorf("overhead regression: %d stage(s) slower than baseline by more than %.0f%%",
		c.Regressions, 100*c.Tolerance)
}

// CompareRuns is how many times a comparison measures the workload:
// one run of a millisecond-scale stage jitters by 2x, the median of
// five holds still enough to gate on.
const CompareRuns = 5

// CompareOverhead checks fresh overhead reports of one workload — the
// CompareRuns measurements — against a baseline: each bench stage
// with a baseline entry compares the median of its matching report
// rows across the runs, and regresses when that median is more than
// tolerance slower (tolerance 0.10 = +10%) and slower by more than the
// runs' own interquartile range, so a stage is not failed for the
// noise its own runs show.  Stages absent from the baseline are
// skipped — old baselines stay usable after the pipeline grows stages.
func CompareOverhead(runs []*OverheadReport, base *BenchBaseline, tolerance float64) *CompareResult {
	res := &CompareResult{Workload: runs[0].Workload, Runs: len(runs), Tolerance: tolerance}
	for _, m := range benchStageMap {
		old, ok := base.Stages[m.Bench]
		if !ok || old <= 0 {
			continue
		}
		walls := make([]int64, len(runs))
		for i, r := range runs {
			for _, st := range m.Stages {
				walls[i] += int64(r.Stage(st).Wall)
			}
		}
		slices.Sort(walls)
		q := func(p float64) int64 { return walls[int(p*float64(len(walls)-1)+0.5)] }
		d := StageDelta{Stage: m.Bench, OldNS: old, NewNS: q(0.5), SpreadNS: q(0.75) - q(0.25)}
		d.Ratio = float64(d.NewNS) / float64(old)
		d.Regressed = d.Ratio > 1+tolerance && d.NewNS-d.OldNS > d.SpreadNS
		if d.Regressed {
			res.Regressions++
		}
		res.Deltas = append(res.Deltas, d)
	}
	return res
}

// RenderCompare formats the comparison table.
func RenderCompare(c *CompareResult, meta *BenchMeta) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "overhead vs baseline — %s, median of %d runs (tolerance +%.0f%%)\n\n",
		c.Workload, c.Runs, 100*c.Tolerance)
	if meta != nil {
		fmt.Fprintf(&sb, "baseline: %s rev=%s gomaxprocs=%d numcpu=%d %s\n\n",
			meta.Go, meta.Rev, meta.GoMaxProcs, meta.NumCPU, meta.Timestamp)
	}
	fmt.Fprintf(&sb, "%-20s %14s %14s %14s %8s\n", "stage", "baseline", "median", "iqr", "ratio")
	for _, d := range c.Deltas {
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
		}
		fmt.Fprintf(&sb, "%-20s %14s %14s %14s %7.2fx%s\n", d.Stage, time.Duration(d.OldNS).String(),
			time.Duration(d.NewNS).String(), time.Duration(d.SpreadNS).String(), d.Ratio, mark)
	}
	if c.Regressions == 0 {
		sb.WriteString("\nno regressions\n")
	}
	return sb.String()
}
