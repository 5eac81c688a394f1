package evaluation

import (
	"testing"
	"time"
)

func report(stages map[string]time.Duration) *OverheadReport {
	r := &OverheadReport{Workload: "test"}
	for _, st := range OverheadStages {
		r.Stages = append(r.Stages, StageCost{Stage: st, Wall: stages[st]})
	}
	return r
}

func TestLoadBaselineFormats(t *testing.T) {
	// Current bench emission: {meta, stages}.
	b, err := LoadBaseline([]byte(`{
		"meta": {"gomaxprocs": 4, "numcpu": 8, "go": "go1.24.0", "rev": "abc", "timestamp": "t"},
		"stages": {"pass2-full-ddg": 1000}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta == nil || b.Meta.GoMaxProcs != 4 || b.Stages["pass2-full-ddg"] != 1000 {
		t.Fatalf("bench emission parse = %+v", b)
	}

	// An overhead -json report list: stage walls sum into bench names.
	b, err = LoadBaseline([]byte(`[{
		"workload": "w", "ops": 1,
		"stages": [
			{"stage": "pass1", "wall_ns": 10, "events": 1, "unit": "op"},
			{"stage": "ddg", "wall_ns": 300, "events": 1, "unit": "op"},
			{"stage": "fold", "wall_ns": 70, "events": 1, "unit": "op"}
		],
		"total_ns": 380
	}]`))
	if err != nil {
		t.Fatal(err)
	}
	if b.Stages["pass1-structure"] != 10 || b.Stages["pass2-full-ddg"] != 370 {
		t.Fatalf("report list parse = %+v", b.Stages)
	}

	for _, bad := range []string{`"nope"`, `{"pass1-structure": 42}`} {
		if _, err := LoadBaseline([]byte(bad)); err == nil {
			t.Fatalf("baseline %s loaded without error", bad)
		}
	}
}

func TestCompareOverheadRegression(t *testing.T) {
	base := &BenchBaseline{Stages: map[string]int64{
		"pass1-structure": int64(2 * time.Millisecond),
		"pass2-full-ddg":  int64(2 * time.Second),
	}}

	// Unchanged run: no regressions, nil Err.
	c := CompareOverhead(report(map[string]time.Duration{
		"pass1": 2 * time.Millisecond,
		"ddg":   1900 * time.Millisecond,
		"fold":  100 * time.Millisecond,
	}), base, 0.10)
	if c.Regressions != 0 || c.Err() != nil {
		t.Fatalf("clean compare flagged regressions: %+v", c)
	}
	// Stages absent from the baseline are skipped, present ones compared.
	if len(c.Deltas) != 2 {
		t.Fatalf("deltas = %+v", c.Deltas)
	}

	// DDG 30% slower: past tolerance and far past the absolute floor.
	c = CompareOverhead(report(map[string]time.Duration{
		"pass1": 2 * time.Millisecond,
		"ddg":   2500 * time.Millisecond,
		"fold":  100 * time.Millisecond,
	}), base, 0.10)
	if c.Regressions != 1 || c.Err() == nil {
		t.Fatalf("ddg regression missed: %+v", c)
	}
	for _, d := range c.Deltas {
		if d.Stage == "pass2-full-ddg" && !d.Regressed {
			t.Fatalf("pass2-full-ddg not marked: %+v", d)
		}
	}

	// pass1 doubling (2ms -> 4ms) is 2.0x but under the absolute noise
	// floor — millisecond stages jitter that much run to run and must
	// not fail the gate.
	c = CompareOverhead(report(map[string]time.Duration{
		"pass1": 4 * time.Millisecond,
		"ddg":   2 * time.Second,
	}), base, 0.10)
	if c.Regressions != 0 {
		t.Fatalf("µs-scale jitter flagged as regression: %+v", c.Deltas)
	}

	if s := RenderCompare(c, &BenchMeta{Go: "go1.24.0", GoMaxProcs: 1, NumCPU: 1}); s == "" {
		t.Fatal("empty render")
	}
}
