package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"polyprof"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("the median of no samples should be NaN")
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{99, 0.9, false}, {100, 0.9, true}, {1000, 0.99, true}, {999, 0.99, false}, {10, 0, true}, {9, 0, false}} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestPlanIsSeededAndBalanced(t *testing.T) {
	for _, w := range workloads {
		if w.Kind == kindJobs {
			continue
		}
		a, b := plan(w, 7, 0), plan(w, 7, 0)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed and round planned differently", w.Name)
		}
		if slices.Equal(a, plan(w, 8, 0)) && slices.Equal(a, plan(w, 7, 1)) {
			t.Errorf("%s: neither the seed nor the round changes the plan", w.Name)
		}
		progs := map[string]int{}
		epochs := map[uint64]int{}
		for _, s := range a {
			progs[s.prog]++
			if s.mode == modeStream {
				epochs[s.epochs]++
			}
		}
		perProg := 1
		if w.Kind == kindEngine {
			perProg = 3 // par2, stream, resume
		}
		for _, p := range w.Progs {
			if progs[p] != perProg {
				t.Errorf("%s: %s planned %d times, want %d", w.Name, p, progs[p], perProg)
			}
		}
		for _, e := range w.Epochs {
			if want := len(w.Progs) / len(w.Epochs); epochs[e] != want {
				t.Errorf("%s: %d-event epochs used %d times, want %d", w.Name, e, epochs[e], want)
			}
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w, _ := lookupWorkload("jobs-openloop")
	c := w.Loop
	c.Dur = 20 * time.Second
	a := schedule(3, w.Progs, c)
	if !slices.Equal(a, schedule(3, w.Progs, c)) {
		t.Fatal("the same seed scheduled differently")
	}
	if slices.Equal(a, schedule(4, w.Progs, c)) {
		t.Fatal("another seed scheduled the same")
	}
	if len(a) != 160 {
		t.Fatalf("%d jobs at 8/s for 20 s, want 160", len(a))
	}
	first := map[string]time.Duration{}
	resubmits := 0
	for i, s := range a {
		if i > 0 && s.Due < a[i-1].Due {
			t.Fatalf("slot %d is due before slot %d", i, i-1)
		}
		if !s.Resubmit {
			if _, ok := first[s.Prog]; !ok {
				first[s.Prog] = s.Due
				if !s.Cacheable {
					t.Errorf("the first submission of %s is not cacheable", s.Prog)
				}
			} else if s.Cacheable {
				t.Errorf("a repeated fresh submission of %s is cacheable", s.Prog)
			}
			continue
		}
		resubmits++
		due, ok := first[s.Prog]
		if !ok || !s.Cacheable || s.Due-due < c.MinAge {
			t.Errorf("resubmission of %s at %v: first sent at %v (seen %v), cacheable %v", s.Prog, s.Due, due, ok, s.Cacheable)
		}
	}
	if resubmits != 40 {
		t.Errorf("%d resubmissions, want 25%% of 160", resubmits)
	}
	if len(first) != len(w.Progs) {
		t.Errorf("%d of %d programs submitted", len(first), len(w.Progs))
	}
}

func TestReportDigestIgnoresLayout(t *testing.T) {
	a, err := reportDigest([]byte(`{"a": [1, 2], "b": {"c": "d"}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := reportDigest([]byte("{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\"c\": \"d\"}\n}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("re-indented JSON digests differently")
	}
	if _, err := reportDigest([]byte("{")); err == nil {
		t.Error("malformed JSON digested without error")
	}
}

// The digests of a program's outputs repeat across runs and match the
// reference file.
func TestDigestsAreStable(t *testing.T) {
	ref, err := loadReference(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range referencePrograms() {
		if _, ok := ref[name]; !ok {
			t.Errorf("%s has no reference digests", name)
		}
	}
	for _, name := range []string{"example1", "example2"} {
		prog, err := polyprof.Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			rep, opt, err := polyprof.OptimizeWith(context.Background(), prog, polyprof.ProfileOptions{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			report, regions, err := reportDigests(rep)
			if err != nil {
				t.Fatal(err)
			}
			o, err := optimizeDigest(opt)
			if err != nil {
				t.Fatal(err)
			}
			got := digests{report, regions, o, staticDigest(prog, polyprof.AnalyzeStatic(prog))}
			if got != ref[name] {
				t.Errorf("%s: digests %+v, reference %+v", name, got, ref[name])
			}
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbench\nVmPeak:\t  123456 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 50 {
		t.Errorf("parseVmHWM = %v, %v; want 50 MiB", got, err)
	}
	for _, bad := range []string{"VmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n", ""} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
	if rss, err := peakRSSMiB(); err != nil || rss <= 0 {
		t.Errorf("peakRSSMiB = %v, %v", rss, err)
	}
}

func TestParseTop(t *testing.T) {
	out := `File: polybench
Type: cpu
Showing nodes accounting for 2.50s, 100% of 2.50s total
      flat  flat%   sum%        cum   cum%
     1.00s 40.00% 40.00%      1.20s 48.00%  polyprof/internal/fold.(*Fitter).reduce
     0.50s 20.00% 60.00%      0.50s 20.00%  math/big.nat.divBasic
     0.25s 10.00% 70.00%      0.25s 10.00%  math/big.(*Rat).Add
     0.50s 20.00% 90.00%      0.60s 24.00%  polyprof/internal/ddg.(*Builder).OnInstr
     0.25s 10.00%   100%      0.25s 10.00%  slices.SortFunc[go.shape.[]int,go.shape.int]
`
	shares, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"polyprof/internal/fold": 40, "math/big": 30, "polyprof/internal/ddg": 20, "slices": 10}
	for pkg, pct := range want {
		if math.Abs(shares[pkg]-pct) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", pkg, shares[pkg], pct)
		}
	}
	if _, err := parseTop("no header here"); err == nil {
		t.Error("output without a header parsed")
	}
}

// benchmarkFile reads the metric units and the workload names that
// BENCHMARK.json, beside the benchmark's directory, declares.
func benchmarkFile(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

func TestBenchmarkFileListsTheWorkloads(t *testing.T) {
	if _, _, names := benchmarkFile(t); !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames())
	}
}
