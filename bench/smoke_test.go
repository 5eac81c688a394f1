package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallWorkloads are the four workload bodies cut down to the two
// smallest programs.
func smallWorkloads() []workload {
	small := []string{"example1", "example2"}
	var out []workload
	for _, w := range workloads {
		w.Progs = small
		if w.Kind == kindEngine {
			w.Epochs = []uint64{16, 32}
		}
		w.Loop.MinAge = 100 * time.Millisecond
		out = append(out, w)
	}
	return out
}

// checkMetrics fails unless res reports exactly the metrics of want,
// each in its unit.
func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
}

func TestTimedSmoke(t *testing.T) {
	endToEnd, _, _ := benchmarkFile(t)
	for _, w := range smallWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			var log bytes.Buffer
			cfg := config{workload: w.Name, seed: 1, seconds: 1, dir: ".", out: t.TempDir()}
			res, err := runWorkload(cfg, w, &log)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed:\n%s", res.Correct, res.Failed, res.Attempted, log.String())
			}
			checkMetrics(t, res, endToEnd)
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	_, perLayer, _ := benchmarkFile(t)
	w := smallWorkloads()[1] // polybench-pgo: the transform layer runs in the workload itself
	var log bytes.Buffer
	cfg := config{workload: w.Name, seed: 1, seconds: 1, trace: true, dir: ".", out: t.TempDir()}
	res, err := runWorkload(cfg, w, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct %v, %d of %d failed:\n%s", res.Correct, res.Failed, res.Attempted, log.String())
	}
	checkMetrics(t, res, perLayer)
	for _, f := range []string{"trace.json", "layers.json", "cpu.pprof"} {
		if fi, err := os.Stat(filepath.Join(cfg.out, "trace", f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "rodinia-sweep", "--trace", "2"},
		{"--workload", "rodinia-sweep", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, printed %q", args, code, out.String())
		}
	}
}
