package evaluation

import (
	"encoding/json"
	"strings"
	"testing"

	"polyprof/internal/workloads"
)

// maskOverhead normalizes the nondeterministic columns of a rendered
// overhead table (wall time, %wall, events/s) so the deterministic
// structure — stage order, event counts, units — can be compared
// against a golden string.  Runs of spaces collapse to one because the
// masked tokens change column widths.
func maskOverhead(out string) string {
	isStage := map[string]bool{"total": true}
	for _, st := range OverheadStages {
		isStage[st] = true
	}
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 6 && isStage[fields[0]] {
			fields[1] = "<wall>"
			fields[2] = "<pct>"
			fields[4] = "<rate>"
		}
		lines = append(lines, strings.Join(fields, " "))
	}
	return strings.Join(lines, "\n")
}

const overheadGoldenExample1 = `profiling overhead — example1 (per-stage cost, Experiment I shape)

stage wall %wall events events/s unit
pass1 <wall> <pct> 83 <rate> instrs
pass2-iiv <wall> <pct> 83 <rate> instrs
ddg <wall> <pct> 83 <rate> instrs
fold <wall> <pct> 32 <rate> streams
sched <wall> <pct> 2 <rate> deps
feedback <wall> <pct> 1 <rate> nests
total <wall> <pct> 83 <rate> instrs (one full run)
note: fold times the terminal Finish() drain; per-event incremental folding is charged to ddg
`

func TestOverheadGoldenExample1(t *testing.T) {
	spec := workloads.ByName("example1")
	if spec == nil {
		t.Fatal("example1 workload not found")
	}
	r, err := Overhead(*spec)
	if err != nil {
		t.Fatal(err)
	}
	got := maskOverhead(RenderOverhead(r))
	if got != overheadGoldenExample1 {
		t.Errorf("masked overhead table mismatch\n--- got ---\n%s\n--- want ---\n%s", got, overheadGoldenExample1)
	}
}

// TestOverheadReportShape checks the report's stage order, totals and
// JSON round trip.
func TestOverheadReportShape(t *testing.T) {
	spec := workloads.ByName("example1")
	if spec == nil {
		t.Fatal("example1 workload not found")
	}
	r, err := Overhead(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stages) != len(OverheadStages) {
		t.Fatalf("got %d stages, want %d", len(r.Stages), len(OverheadStages))
	}
	var total int64
	for i, s := range r.Stages {
		if s.Stage != OverheadStages[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Stage, OverheadStages[i])
		}
		if s.Wall < 0 {
			t.Errorf("stage %q has negative wall time %v", s.Stage, s.Wall)
		}
		total += int64(s.Wall)
	}
	if int64(r.Total) != total {
		t.Errorf("Total %v != sum of stages %v", r.Total, total)
	}
	if r.Ops == 0 {
		t.Error("Ops = 0, want the pass-2 instruction count")
	}
	if got := r.Stage("ddg").Events; got != r.Ops {
		t.Errorf("ddg stage events = %d, want Ops = %d", got, r.Ops)
	}
	if r.Stage("nonexistent") != (StageCost{}) {
		t.Error("Stage of unknown name should be the zero value")
	}
	data, err := OverheadJSON([]*OverheadReport{r})
	if err != nil {
		t.Fatal(err)
	}
	var back []OverheadReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back) != 1 || back[0].Workload != "example1" || len(back[0].Stages) != len(OverheadStages) {
		t.Errorf("round-trip mismatch: %+v", back)
	}
}

func TestRenderOverheadSuite(t *testing.T) {
	spec := workloads.ByName("example1")
	if spec == nil {
		t.Fatal("example1 workload not found")
	}
	r, err := Overhead(*spec)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderOverheadSuite([]*OverheadReport{r, r})
	for _, want := range []string{"benchmark", "example1", "TOTAL", "stage share of total profiling cost:"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite table missing %q:\n%s", want, out)
		}
	}
	for _, st := range OverheadStages {
		if !strings.Contains(out, st) {
			t.Errorf("suite table missing stage column %q", st)
		}
	}
}
