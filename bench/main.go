// Command bench is polyprof's benchmark.  run.sh builds it and runs it
// from the repository root:
//
//	bash bench/run.sh --workload rodinia-sweep --seed 1 --seconds 25 --trace 0
//
// One run sets up, runs one workload for about --seconds seconds, checks
// every output against testdata/reference.json, prints each metric as a
// "name value unit" line and ends with one JSON line:
//
//	{"correct":true,"attempted":18,"failed":0,"metrics":{"wall_s":{"value":19.8,"unit":"s"},...}}
//
// --trace 0 measures the end-to-end metrics with observability off.
// --trace 1 is a separate run that calls each layer's entry points one
// at a time under spans, with a fresh enabled registry and the CPU
// profiler on, and reports the per-layer metrics; it writes trace.json
// (Chrome format), layers.json and cpu.pprof under <out>/trace/.
// -update regenerates testdata/reference.json from the current code.
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // the benchmark's directory, holding referenceFile
	out      string // where daemon data directories and traces go
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var update bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for program order and every random draw")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".", "the benchmark's directory, holding "+referenceFile)
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for daemon data and trace output")
	fs.BoolVar(&update, "update", false, "regenerate "+referenceFile+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if update {
		if err := updateReference(cfg.dir, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(cfg.workload)
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: want --workload one of %s, --trace 0 or 1 and --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = trace == 1
	res, err := runWorkload(cfg, w, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "bench: wrong outputs")
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints: informational lines, every metric as a
// "name value unit" line, then the JSON summary as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string
	err   error // a metric without a value
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.err = errors.Join(r.err, fmt.Errorf("metric %s has no value", name))
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// note adds an informational "name value unit" line that is not part of
// the JSON summary.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %v %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	js, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", js)
	return err
}

// runWorkload sets up, runs the workload timed or traced, and collects
// the result.
func runWorkload(cfg config, w workload, log io.Writer) (*result, error) {
	e, setupS, err := setup(cfg, w, log)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := newResult()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		err = e.traced(w, budget, res)
	} else {
		err = e.timed(w, budget, res)
		res.set("setup_s", setupS, "s")
	}
	if err != nil {
		return nil, err
	}
	// Peak RSS moves with the phase of the garbage collector by up to a
	// fifth from run to run, too much for an end-to-end bound; traced runs
	// report it as a per-layer metric.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.set("peak_rss_mb", rss, "MiB")
	} else {
		res.note("peak_rss_mb %v MiB", rss)
	}
	if res.err != nil {
		return nil, res.err
	}
	res.Attempted, res.Failed, res.Correct = e.attempted, e.failed, e.wrong == 0
	errFrac := 0.0
	if e.attempted > 0 {
		errFrac = float64(e.failed) / float64(e.attempted)
	}
	res.note("error_frac %v ratio", errFrac)
	res.note("wrong_outputs %d count", e.wrong)
	return res, nil
}
