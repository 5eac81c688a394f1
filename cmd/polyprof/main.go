// Command polyprof runs the POLY-PROF reproduction pipeline on the
// bundled workloads: profile a benchmark and print its feedback, render
// an annotated flame graph, regenerate the paper's evaluation tables,
// run the static baseline, or measure the profiler's own per-stage
// cost.
//
// Usage:
//
//	polyprof list
//	polyprof profile <workload>        full pipeline + feedback report
//	polyprof flame <workload> [-o f]   annotated flame graph SVG
//	polyprof static <workload>         Polly-like baseline verdicts
//	polyprof disasm <workload>         pseudo-assembler listing
//	polyprof table5                    Experiment I+II summary table
//	polyprof casestudy <backprop|gemsfdtd>   Table 3 / Table 4
//	polyprof overhead [workload|all]   per-stage profiling cost (Exp. I)
//	polyprof serve [-http :7070]       profiling-as-a-service daemon
//
// profile, report, table5 and overhead accept -metrics (append a
// metrics section), -http :addr (serve live Prometheus/JSON metrics +
// pprof), and -trace out.json (write the pipeline span tree as Chrome
// trace-event JSON for Perfetto).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"polyprof"
	"polyprof/internal/evaluation"
	"polyprof/internal/faultinject"
	"polyprof/internal/iiv"
	"polyprof/internal/obs"
	"polyprof/internal/serve"
	"polyprof/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// POLYPROF_FAULT=point=mode[:arg][:count],... arms the fault
	// injection registry for chaos testing (e.g.
	// POLYPROF_FAULT=vm.step=error:boom:3).
	if err := faultinject.ArmFromEnv(os.Getenv("POLYPROF_FAULT")); err != nil {
		fmt.Fprintln(os.Stderr, "polyprof:", err)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "flame":
		err = cmdFlame(os.Args[2:])
	case "static":
		err = cmdStatic(os.Args[2:])
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "table5":
		err = cmdTable5(os.Args[2:])
	case "overhead":
		err = cmdOverhead(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "work":
		err = cmdWork(os.Args[2:])
	case "flight":
		err = cmdFlight(os.Args[2:])
	case "casestudy":
		err = cmdCaseStudy(os.Args[2:])
	case "ddg":
		err = cmdDDG(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "optimize":
		err = cmdOptimize(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyprof:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: polyprof <command> [args]

commands:
  list                    list bundled workloads
  profile <workload>      run the full pipeline and print feedback
  flame <workload> [-o f] write the annotated flame graph SVG
  static <workload>       run the Polly-like static baseline
  disasm <workload>       print the pseudo-assembler listing
  table5                  run the whole Rodinia suite (Experiment I+II)
  overhead [workload|all] per-stage profiling cost table (Experiment I)
  casestudy <name>        backprop (Table 3) or gemsfdtd (Table 4)
  ddg <workload>          dump the folded polyhedral DDG of the region
  report <workload> [-json]  full feedback document (or JSON)
  optimize <workload> [-json] [-tile n]
                          close the PGO loop: apply the suggested schedules
                          (interchange, rectangular tiling), verify output
                          equality, and print measured speedups; illegal or
                          unrecognizable schedules are refused with a reason
  serve [-http :7070]     profiling-as-a-service daemon (POST /v1/profile)
  work -coordinator URL   stateless remote worker: claim jobs from a
                          coordinator over the lease protocol, run them,
                          report under the fencing token (-workers n slots,
                          -lease-ttl d, -name id; budget flags apply)
  flight <list|show|export|gc> [id] -data-dir d
                          inspect or prune flight-recorder incident bundles
                          written by the daemon (under <data-dir>/flightrec;
                          gc takes -keep n and -max-bytes b, oldest removed
                          first)

overhead regression flags:
  -compare f.json  diff the fresh stage costs against a baseline
                   (BENCH_overhead.json bench emission or overhead -json
                   output); exits nonzero on regression
  -tolerance x     allowed slowdown before -compare fails (default 0.10 = +10%)

flags (profile, report, table5, overhead):
  -metrics      append the metrics-registry section to the output
  -http :addr   serve /metrics (Prometheus or ?format=json) + pprof
  -trace f.json write the pipeline span tree as Chrome trace-event JSON

budget flags (profile, report, serve):
  -timeout d         abort after this wall-clock duration (0 = unlimited)
  -max-steps n       abort after n dynamic VM steps (0 = unlimited)
  -max-shadow-mb n   degrade (coarsen, soundly) DDG tracking past n MiB
  -max-ddg-edges n   degrade DDG folding past n distinct edges

streaming (profile, serve):
  -epoch-events n    fold state every n dynamic events instead of buffering
                     the whole trace: shadow memory is released per epoch
                     (bounded-memory runs under -max-shadow-mb), the daemon
                     checkpoints each epoch durably (crash/kill resumes from
                     the last committed epoch) and streams per-epoch
                     provisional reports on GET /v1/jobs/<id>?stream=1;
                     final reports are byte-identical to buffered runs

serve flags:
  -http :addr        listen address (default :7070)
  -max-inflight n    concurrent profile requests before 429 (default 2)
  -ring n            request summaries kept for /v1/requests (default 64)
  -request-timeout d per-request wall-clock limit, 408 on expiry (default 60s)
  -data-dir path     durable job store (enables POST /v1/jobs, GET /v1/jobs,
                     DELETE /v1/jobs/<id>, crash-safe results + request
                     history via WAL + snapshots)
  -workers n         concurrent local job executions (default 2; 0 runs no
                     jobs locally — a pure coordinator for polyprof work)
  -max-attempts n    attempts before a failing job is quarantined (default 3)
  -job-ttl d         delete terminal jobs this long after they finish
                     (WAL-logged; default 0 = keep forever)
  -slow-job-threshold d  freeze the flight recorder when a job attempt runs
                     longer than this (default request-timeout/2; negative
                     disables)
  -lease-ttl d       default lease TTL for remote workers (default 30s,
                     clamped to [200ms, 10m]); expired leases are reclaimed
                     and their jobs re-queued

POLYPROF_FAULT=point=mode[:arg][:count],... arms fault injection
(points: vm.step, ddg.shadow.insert, fold.finish, fold.epoch.merge,
sched.build, jobstore.wal.append, jobstore.wal.sync,
jobstore.snapshot, jobstore.replay, parddg.batch.dispatch,
parddg.shard.insert, parddg.merge, jobexec.attempt,
jobexec.checkpoint, jobapi.partition, jobapi.acquire,
jobapi.heartbeat, jobapi.result, transform.apply, transform.verify;
modes: panic, error, budget, delay; a
negative count is sticky — the fault fires on every hit, e.g.
jobapi.partition=error:net:-1 holds a partition)`)
}

func cmdList() error {
	fmt.Println("Rodinia 3.1 twins (Table 5):")
	for _, s := range polyprof.Rodinia() {
		fmt.Printf("  %-16s (paper Polly reasons: %s)\n", s.Name, s.PaperReasons)
	}
	fmt.Println("case studies: gemsfdtd (Table 4), backprop (Table 3)")
	fmt.Println("paper figures: example1, example2 (Fig. 3)")
	fmt.Println("PolyBench twins:")
	names := []string{}
	for _, s := range workloads.PolyBench() {
		names = append(names, s.Name)
	}
	for _, s := range workloads.PolyBenchExtra() {
		names = append(names, s.Name)
	}
	fmt.Println("  " + strings.Join(names, ", "))
	return nil
}

// parseWorkload parses a subcommand's flag set together with its
// workload operand, accepting the flags on either side of the name
// (`profile backprop -metrics` and `profile -metrics backprop` both
// work, matching the overhead subcommand).  It returns "" when no
// workload was given.
func parseWorkload(fs *flag.FlagSet, args []string) (string, error) {
	name := ""
	rest := args
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name = args[0]
		rest = args[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return "", err
	}
	if name == "" && fs.NArg() > 0 {
		name = fs.Arg(0)
	}
	return name, nil
}

// obsFlags holds the shared observability flags of the profiling
// commands: -metrics appends the registry snapshot to the output,
// -http serves live metrics (Prometheus or JSON) and pprof during the
// run, -trace writes the run's span tree as Chrome trace-event JSON.
type obsFlags struct {
	metrics bool
	http    string
	trace   string
	// jsonOut is set by commands emitting a machine-readable document
	// on stdout; the metrics section then goes to stderr so stdout
	// stays valid JSON for consumers piping it.
	jsonOut bool

	srv *obs.MetricsServer
}

// budgetFlags holds the shared resource-governance flags of the
// profiling commands.  Wall clock and steps are hard limits (the run
// aborts with a budget error); shadow memory and DDG edges are
// degrading limits (dependence tracking coarsens, soundly, instead of
// failing).
type budgetFlags struct {
	timeout     time.Duration
	maxSteps    uint64
	maxShadowMB uint64
	maxEdges    uint64
}

func addBudgetFlags(fs *flag.FlagSet) *budgetFlags {
	f := &budgetFlags{}
	fs.DurationVar(&f.timeout, "timeout", 0, "abort the run after this wall-clock duration (0 = unlimited)")
	fs.Uint64Var(&f.maxSteps, "max-steps", 0, "abort the run after this many dynamic VM steps (0 = unlimited)")
	fs.Uint64Var(&f.maxShadowMB, "max-shadow-mb", 0, "degrade dependence tracking past this much shadow memory, MiB (0 = unlimited)")
	fs.Uint64Var(&f.maxEdges, "max-ddg-edges", 0, "degrade dependence folding past this many distinct DDG edges (0 = unlimited)")
	return f
}

func (f *budgetFlags) limits() polyprof.BudgetLimits {
	return polyprof.BudgetLimits{
		Wall:           f.timeout,
		MaxSteps:       f.maxSteps,
		MaxShadowBytes: f.maxShadowMB << 20,
		MaxDDGEdges:    f.maxEdges,
	}
}

// noteDegraded warns on stderr when a run's DDG was coarsened by a
// resource budget.
func noteDegraded(rep *polyprof.Report) {
	if d := rep.Profile.DDG.Degraded; d != nil {
		fmt.Fprintf(os.Stderr, "polyprof: degraded run: budget(s) %v tripped; %d dependence(s) over-approximated (sound superset)\n",
			d.Budgets, d.CoarseDeps)
	}
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	f := &obsFlags{}
	fs.BoolVar(&f.metrics, "metrics", false, "append the metrics-registry section to the output")
	fs.StringVar(&f.http, "http", "", "serve metrics and pprof on this address (e.g. :6060)")
	fs.StringVar(&f.trace, "trace", "", "write the pipeline span tree as Chrome trace-event JSON to this file")
	return f
}

func (f *obsFlags) start() error {
	if f.metrics || f.http != "" || f.trace != "" {
		obs.Enable()
		obs.Reset()
	}
	if f.http != "" {
		srv, err := obs.Serve(f.http)
		if err != nil {
			return err
		}
		f.srv = srv
		fmt.Fprintf(os.Stderr, "polyprof: metrics on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}
	return nil
}

func (f *obsFlags) finish() error {
	if f.metrics {
		out := io.Writer(os.Stdout)
		if f.jsonOut {
			out = os.Stderr
		}
		fmt.Fprintln(out)
		fmt.Fprintln(out, "== metrics ==")
		fmt.Fprint(out, obs.TakeSnapshot().Text())
	}
	if f.trace != "" {
		spans := obs.Default.Spans()
		if err := obs.WriteChromeTrace(f.trace, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "polyprof: wrote %s (%d spans; load in Perfetto or chrome://tracing)\n", f.trace, len(spans))
	}
	if f.srv != nil {
		fmt.Fprintln(os.Stderr, "polyprof: metrics server still running; Ctrl-C to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		if err := f.srv.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "polyprof: metrics server stopped")
	}
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	of := addObsFlags(fs)
	bf := addBudgetFlags(fs)
	epochEvents := fs.Uint64("epoch-events", 0,
		"streaming mode: fold state and release shadow memory every n dynamic events (0 = buffered)")
	name, err := parseWorkload(fs, args)
	if err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("profile: missing workload name")
	}
	if err := of.start(); err != nil {
		return err
	}
	prog, err := polyprof.Workload(name)
	if err != nil {
		return err
	}
	popts := polyprof.ProfileOptions{
		Limits:      bf.limits(),
		EpochEvents: *epochEvents,
	}
	// No OnEpoch: a callback makes every boundary serialize a resume
	// checkpoint, which the CLI has no use for.
	rep, err := polyprof.ProfileWith(context.Background(), prog, popts)
	if err != nil {
		return err
	}
	if p := rep.Profile; *epochEvents > 0 {
		fmt.Fprintf(os.Stderr, "polyprof: %d epochs of %d events folded (%.1f MiB shadow released)\n",
			p.Epochs, *epochEvents, float64(p.ReleasedBytes)/(1<<20))
	}
	noteDegraded(rep)
	fmt.Print(rep.Summary())
	if rep.Best != nil {
		fmt.Println()
		fmt.Print(rep.AnnotatedAST(rep.Best))
		fmt.Println()
		for _, t := range rep.Best.Transforms {
			if len(t.Nest.Loops) == 0 || t.Nest.Loops[0].TotalOps*10 < rep.Best.Ops {
				continue
			}
			if sp, err := rep.EstimateSpeedup(t, polyprof.DefaultCostModel()); err == nil {
				fmt.Printf("estimated speedup (nest depth %d): %v\n", t.Nest.Depth(), sp)
			}
		}
	}
	fmt.Println()
	fmt.Println("dynamic schedule tree (hot paths):")
	fmt.Print(rep.Profile.Tree.Render(iiv.ProgramNamer(prog), rep.Profile.Tree.TotalOps()/50))
	return of.finish()
}

func cmdFlame(args []string) error {
	fs := flag.NewFlagSet("flame", flag.ExitOnError)
	out := fs.String("o", "", "output file (default <workload>.svg)")
	width := fs.Int("w", 1200, "SVG width")
	name, err := parseWorkload(fs, args)
	if err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("flame: missing workload name")
	}
	prog, err := polyprof.Workload(name)
	if err != nil {
		return err
	}
	rep, err := polyprof.Profile(prog)
	if err != nil {
		return err
	}
	svg := rep.FlameGraph(*width, 18)
	path := *out
	if path == "" {
		path = name + ".svg"
	}
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(svg))
	return nil
}

func cmdStatic(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("static: missing workload name")
	}
	prog, err := polyprof.Workload(args[0])
	if err != nil {
		return err
	}
	res := polyprof.AnalyzeStatic(prog)
	fmt.Printf("%-26s %-8s %-8s %s\n", "function", "loops", "modeled", "failure reasons (RCBFAP)")
	for _, f := range prog.Funcs {
		fr := res.Funcs[f.ID]
		fmt.Printf("%-26s %-8v %-8v %v\n", f.Name, fr.HasLoops, fr.Modeled, fr.Reasons)
	}
	if spec := workloads.ByName(args[0]); spec != nil && len(spec.RegionFuncs) > 0 {
		fmt.Printf("\nregion %v: reasons %v (paper reported: %s)\n",
			spec.RegionFuncs, res.RegionReasons(prog, spec.RegionFuncs...), spec.PaperReasons)
	}
	return nil
}

func cmdDisasm(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("disasm: missing workload name")
	}
	prog, err := polyprof.Workload(args[0])
	if err != nil {
		return err
	}
	fmt.Print(prog.Disasm())
	return nil
}

func cmdDDG(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("ddg: missing workload name")
	}
	prog, err := polyprof.Workload(args[0])
	if err != nil {
		return err
	}
	rep, err := polyprof.Profile(prog)
	if err != nil {
		return err
	}
	if rep.Best == nil {
		return fmt.Errorf("no region of interest")
	}
	fmt.Print(rep.DomainReport(rep.Best, 0, -1))
	fmt.Println()
	fmt.Print(rep.DDGReport(rep.Best))
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the machine-readable report")
	of := addObsFlags(fs)
	bf := addBudgetFlags(fs)
	name, err := parseWorkload(fs, args)
	if err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("report: missing workload name")
	}
	of.jsonOut = *asJSON
	if err := of.start(); err != nil {
		return err
	}
	prog, err := polyprof.Workload(name)
	if err != nil {
		return err
	}
	rep, err := polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{Limits: bf.limits()})
	if err != nil {
		return err
	}
	noteDegraded(rep)
	if *asJSON {
		cm := polyprof.DefaultCostModel()
		data, err := rep.JSON(&cm)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return of.finish()
	}
	fmt.Print(rep.Document(polyprof.DefaultCostModel()))
	return of.finish()
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the full machine-readable report (feedback + optimization section)")
	tile := fs.Int("tile", 0, "rectangular tile edge (0 = engine default)")
	of := addObsFlags(fs)
	bf := addBudgetFlags(fs)
	name, err := parseWorkload(fs, args)
	if err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("optimize: missing workload name")
	}
	of.jsonOut = *asJSON
	if err := of.start(); err != nil {
		return err
	}
	prog, err := polyprof.Workload(name)
	if err != nil {
		return err
	}
	rep, opt, err := polyprof.OptimizeWith(context.Background(), prog, polyprof.ProfileOptions{Limits: bf.limits()}, *tile)
	if err != nil {
		return err
	}
	noteDegraded(rep)
	if *asJSON {
		optJSON, err := json.Marshal(opt)
		if err != nil {
			return err
		}
		cm := polyprof.DefaultCostModel()
		data, err := rep.JSONWith(&cm, optJSON)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return of.finish()
	}
	printOptimizeReport(opt)
	return of.finish()
}

// printOptimizeReport renders the transform engine's result for a
// terminal: baseline, then per-nest variants with measured speedups or
// structured refusal reasons.
func printOptimizeReport(opt *polyprof.OptimizeReport) {
	fmt.Printf("== profile-guided optimization: %s ==\n", opt.Program)
	if opt.Refused != nil {
		fmt.Printf("refused: %s\n", opt.Refused)
		return
	}
	if opt.Baseline != nil {
		fmt.Printf("baseline: %d cycles (%d cache hits, %d misses; tile=%d)\n",
			opt.Baseline.Cycles, opt.Baseline.CacheHits, opt.Baseline.CacheMisses, opt.TileSize)
	}
	if len(opt.Candidates) == 0 {
		fmt.Println("no transformable nests suggested")
		return
	}
	for _, c := range opt.Candidates {
		fmt.Printf("\nnest %s (depth %d, %d dynamic ops, %d context(s)): %s\n",
			c.Nest, c.Depth, c.Ops, c.Contexts, c.Suggested)
		if c.Refused != nil {
			fmt.Printf("  refused: %s\n", c.Refused)
			continue
		}
		for _, v := range c.Variants {
			switch {
			case v.Refused != nil:
				fmt.Printf("  %-17s refused: %s\n", v.Kind, v.Refused)
			case v.Verified:
				fmt.Printf("  %-17s speedup %.3fx (%d cycles, %d hits, %d misses) [verified]\n",
					v.Kind, v.MeasuredSpeedup, v.Measured.Cycles,
					v.Measured.CacheHits, v.Measured.CacheMisses)
			default:
				fmt.Printf("  %-17s applied=%v verified=%v\n", v.Kind, v.Applied, v.Verified)
			}
		}
	}
	if opt.BestSpeedup > 0 {
		fmt.Printf("\nbest: %s, measured speedup %.3fx\n", opt.Best, opt.BestSpeedup)
	}
}

func cmdTable5(args []string) error {
	fs := flag.NewFlagSet("table5", flag.ExitOnError)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.start(); err != nil {
		return err
	}
	fmt.Println("running the Rodinia suite through the full pipeline (Experiment I+II)...")
	rows, err := polyprof.RunSuite()
	if err != nil {
		return err
	}
	fmt.Print(polyprof.RenderTable5(rows))
	fmt.Println("\nExperiment II (static baseline): per-benchmark failure reasons vs. the paper")
	fmt.Printf("%-16s %-10s %-10s %s\n", "benchmark", "ours", "paper", "whole region modeled?")
	for _, r := range rows {
		fmt.Printf("%-16s %-10s %-10s %v\n", r.Row.Name, r.Row.PollyReasons, r.Row.PaperReasons, r.Row.PollyModeled)
	}
	return of.finish()
}

// cmdOverhead measures the cost of the profiling pipeline itself, per
// stage, for one workload or the whole Rodinia suite (the shape of the
// paper's Experiment I).
func cmdOverhead(args []string) error {
	fs := flag.NewFlagSet("overhead", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit machine-readable stage costs")
	compare := fs.String("compare", "", "baseline to diff against (bench emission or overhead -json output); exits nonzero on regression")
	tolerance := fs.Float64("tolerance", 0.10, "allowed slowdown before -compare fails (0.10 = +10%)")
	of := addObsFlags(fs)
	name, err := parseWorkload(fs, args)
	if err != nil {
		return err
	}
	if name == "" {
		name = "all"
	}
	of.jsonOut = *asJSON
	if err := of.start(); err != nil {
		return err
	}
	var rs []*evaluation.OverheadReport
	var render func() string
	if name == "all" {
		fmt.Fprintln(os.Stderr, "measuring per-stage profiling cost across the Rodinia suite...")
		rs, err = evaluation.OverheadSuite()
		if err != nil {
			return err
		}
		render = func() string { return evaluation.RenderOverheadSuite(rs) }
	} else {
		spec := workloads.ByName(name)
		if spec == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		r, err := evaluation.Overhead(*spec)
		if err != nil {
			return err
		}
		rs = []*evaluation.OverheadReport{r}
		render = func() string { return evaluation.RenderOverhead(r) }
	}
	if *asJSON {
		data, err := evaluation.OverheadJSON(rs)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(render())
	}
	var cmpErr error
	if *compare != "" {
		if len(rs) != 1 {
			return fmt.Errorf("overhead: -compare wants a single workload, not %q", name)
		}
		data, err := os.ReadFile(*compare)
		if err != nil {
			return err
		}
		base, err := evaluation.LoadBaseline(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *compare, err)
		}
		c := evaluation.CompareOverhead(rs[0], base, *tolerance)
		out := io.Writer(os.Stdout)
		if *asJSON {
			out = os.Stderr
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, evaluation.RenderCompare(c, base.Meta))
		cmpErr = c.Err()
	}
	if err := of.finish(); err != nil {
		return err
	}
	return cmpErr
}

// cmdServe runs the profiling-as-a-service daemon: POST
// /v1/profile?workload=<name> runs the full pipeline per request with
// a per-request span tree; /metrics exposes the merged process
// registry.  SIGINT/SIGTERM drain in-flight profiles and exit.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("http", ":7070", "listen address")
	maxInFlight := fs.Int("max-inflight", 2, "max concurrently running profile requests (excess get 429)")
	ring := fs.Int("ring", 64, "recent-request summaries kept for /v1/requests")
	reqTimeout := fs.Duration("request-timeout", serve.DefaultRequestTimeout,
		"per-request wall-clock limit, 408 on expiry (negative disables)")
	dataDir := fs.String("data-dir", "", "durable job-store directory; enables POST /v1/jobs and persistent request history")
	workers := fs.Int("workers", 2, "concurrent local job executions; 0 = coordinator-only, jobs run on remote `polyprof work` workers (requires -data-dir)")
	maxAttempts := fs.Int("max-attempts", 3, "attempts before a failing job is quarantined (requires -data-dir)")
	jobTTL := fs.Duration("job-ttl", 0, "garbage-collect terminal jobs this long after they finish (0 = keep forever; requires -data-dir)")
	slowJob := fs.Duration("slow-job-threshold", 0, "write a flight bundle when a job attempt outlives this (0 = request-timeout/2, negative disables)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "default lease TTL granted to remote workers (clamped to [200ms, 10m])")
	epochEvents := fs.Uint64("epoch-events", 0,
		"default epoch grid for submitted jobs: stream, checkpoint, and emit provisional reports every n events (0 = buffered; per-job ?epoch-events overrides)")
	bf := addBudgetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The flag's 0 means "no local execution" (pure coordinator); the
	// pool reserves 0 for its own default, so translate to its negative
	// coordinator-only encoding.
	localWorkers := *workers
	if localWorkers == 0 {
		localWorkers = -1
	}
	s, err := serve.New(serve.Options{
		MaxInFlight:      *maxInFlight,
		RingSize:         *ring,
		RequestTimeout:   *reqTimeout,
		Limits:           bf.limits(),
		DataDir:          *dataDir,
		Workers:          localWorkers,
		MaxAttempts:      *maxAttempts,
		JobTTL:           *jobTTL,
		SlowJobThreshold: *slowJob,
		LeaseTTL:         *leaseTTL,
		EpochEvents:      *epochEvents,
		// Open after the listener is up so /readyz answers 503 during
		// WAL replay instead of the port refusing connections.
		DeferOpen: true,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		return err
	}
	srv := &http.Server{Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// Replay the WAL and start the pool/reclaimer while the listener
	// answers /readyz 503; the "serving profiles" line below is the
	// scriptable ready signal and must only print once Open succeeded.
	if err := s.Open(); err != nil {
		srv.Close()
		s.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "polyprof: serving profiles on http://%s (POST /v1/profile?workload=<name>)\n", ln.Addr())
	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "polyprof: durable jobs enabled under %s (POST /v1/jobs)\n", *dataDir)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		s.Close()
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "polyprof: %v — draining in-flight profiles\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			s.Close()
			return err
		}
		// Stop the worker pool and compact+close the WAL after HTTP
		// drain, so in-flight jobs either finish or re-enqueue durably.
		if err := s.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "polyprof: drained, bye")
		return nil
	}
}

func cmdCaseStudy(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("casestudy: want backprop or gemsfdtd")
	}
	name := args[0]
	spec := workloads.ByName(name)
	if spec == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, rows, err := evaluation.CaseStudy(*spec, 0.05)
	if err != nil {
		return err
	}
	title := "case study"
	switch name {
	case "backprop":
		title = "Case study I (paper Table 3): backprop"
	case "gemsfdtd":
		title = "Case study II (paper Table 4): GemsFDTD"
	}
	fmt.Println(title)
	if res.Report.Best != nil {
		fmt.Printf("region: %s (%.0f%% of ops)\n\n", res.Report.Best.CodeRef, 100*res.Report.Best.PctOps)
	}
	for _, row := range rows {
		par := make([]string, len(row.Parallel))
		for i, p := range row.Parallel {
			par[i] = map[bool]string{true: "yes", false: "no"}[p]
		}
		st := make([]string, len(row.Stride01))
		for i, s := range row.Stride01 {
			st[i] = fmt.Sprintf("%.0f%%", 100*s)
		}
		fmt.Printf("nest %s: %.0f%% ops\n", row.Region, 100*row.PctOps)
		fmt.Printf("  transform:  %s\n", row.Transform)
		fmt.Printf("  parallel:   (%s)  permutable: %v  tile: %dD  stride01: (%s)\n",
			strings.Join(par, ","), row.Permutable, row.TileD, strings.Join(st, ","))
		fmt.Printf("  speedup:    %s\n\n", row.SpeedupNote)
	}
	return nil
}
