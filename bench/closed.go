package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"polyprof"
	"polyprof/internal/isa"
)

// env is the state one run shares across its ops.
type env struct {
	cfg    config
	ref    map[string]digests
	progs  map[string]*isa.Program
	bodies map[string][]byte // isa-JSON job bodies (jobs-openloop)
	d      *daemon           // the in-process daemon (jobs-openloop)
	tr     *tracer           // nil in timed runs
	log    io.Writer

	attempted, failed, wrong int
}

// setupRepeats is how often a run sets up; setup_s is the median, so
// that work moved into set-up shows and one slow repetition does not.
const setupRepeats = 9

// setup prepares a run: read the reference digests, build the programs,
// and for jobs-openloop encode the job bodies and open the daemon; then
// warm the pipeline with one profile of the probe program.  It sets up
// setupRepeats times, keeps the last, and returns the median time.
func setup(cfg config, w workload, log io.Writer) (*env, float64, error) {
	var times []float64
	var e *env
	for range setupRepeats {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setupOnce(cfg, w, log); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

func setupOnce(cfg config, w workload, log io.Writer) (*env, error) {
	ref, err := loadReference(cfg.dir)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, ref: ref, progs: map[string]*isa.Program{}, log: log}
	for _, name := range append(slices.Clone(w.Progs), probeProgram) {
		if e.progs[name] != nil {
			continue
		}
		if e.progs[name], err = polyprof.Workload(name); err != nil {
			return nil, err
		}
	}
	if w.Kind != kindJobs {
		rep, err := polyprof.ProfileWith(context.Background(), e.progs[probeProgram], polyprof.ProfileOptions{})
		if err != nil {
			return nil, fmt.Errorf("warm-up profile: %w", err)
		}
		e.checkReport(probeProgram, "warm-up", rep)
		return e, nil
	}
	if err := e.startDaemon(append(slices.Clone(w.Progs), probeProgram)); err != nil {
		return nil, err
	}
	if err := e.d.warmup(e, probeProgram); err != nil {
		e.d.close()
		return nil, err
	}
	return e, nil
}

// startDaemon encodes the named programs as isa-JSON job bodies and
// opens a daemon on a fresh data directory.
func (e *env) startDaemon(progs []string) error {
	e.bodies = map[string][]byte{}
	for _, name := range progs {
		var err error
		if e.bodies[name], err = isa.EncodeJSON(e.progs[name]); err != nil {
			return fmt.Errorf("encoding %s: %w", name, err)
		}
	}
	var err error
	e.d, err = openDaemon(filepath.Join(e.cfg.out, "run"))
	return err
}

func (e *env) close() error {
	if e.d == nil {
		return nil
	}
	err := e.d.close()
	e.d = nil
	return err
}

// checkReport compares a report with the reference digests; a mismatch
// is a wrong output.
func (e *env) checkReport(prog, what string, rep *polyprof.Report) {
	report, regions, err := reportDigests(rep)
	ref := e.ref[prog]
	switch {
	case err != nil:
		e.wrongOutput(prog, what, err.Error())
	case report != ref.Report:
		e.wrongOutput(prog, what, "report JSON differs from the reference")
	case regions != ref.Regions:
		e.wrongOutput(prog, what, "DDG/domain report of the best region differs from the reference")
	}
}

func (e *env) checkOptimize(prog string, opt *polyprof.OptimizeReport) {
	d, err := optimizeDigest(opt)
	switch {
	case err != nil:
		e.wrongOutput(prog, kindOptimize, err.Error())
	case d != e.ref[prog].Optimize:
		e.wrongOutput(prog, kindOptimize, "optimize verdicts differ from the reference")
	}
}

func (e *env) checkStatic(prog string, res *polyprof.StaticResult) {
	if staticDigest(e.progs[prog], res) != e.ref[prog].Static {
		e.wrongOutput(prog, "static", "static verdicts differ from the reference")
	}
}

func (e *env) wrongOutput(prog, what, why string) {
	e.wrong++
	fmt.Fprintf(e.log, "bench: wrong output: %s %s: %s\n", what, prog, why)
}

func (e *env) opFailed(what string, err error) {
	e.failed++
	fmt.Fprintf(e.log, "bench: %s failed: %v\n", what, err)
}

// sample is one measured op: its wall time and the dynamic instructions
// its report covers.
type sample struct {
	wall   time.Duration
	instrs uint64
}

// forRounds runs whole rounds of w, one client, until the budget would
// be exceeded: a new round starts only if the last one fits in the time
// left.  The first round always runs.
func forRounds(w workload, seed int64, budget time.Duration, run func([]step)) {
	start := time.Now()
	var last time.Duration
	for r := 0; r == 0 || time.Since(start)+last <= budget; r++ {
		t0 := time.Now()
		run(plan(w, seed, r))
		last = time.Since(t0)
	}
}

// closedLoop runs the workload's rounds and returns each round's ops.
func (e *env) closedLoop(w workload, budget time.Duration) [][]sample {
	var rounds [][]sample
	forRounds(w, e.cfg.seed, budget, func(steps []step) {
		var ops []sample
		var cks [][]byte
		for _, s := range steps {
			e.attempted++
			smp, err := e.runStep(s, &cks)
			if err != nil {
				e.opFailed(s.mode+" "+s.prog, err)
				continue
			}
			ops = append(ops, smp)
		}
		rounds = append(rounds, ops)
	})
	return rounds
}

// runStep executes one step through the library's public entry points,
// observability off, as a user would call them; it checks the outputs
// after the clock stops.  A stream step leaves its checkpoints in cks
// for the resume step that follows it.
func (e *env) runStep(s step, cks *[][]byte) (sample, error) {
	prog := e.progs[s.prog]
	ctx := context.Background()
	var rep *polyprof.Report
	var opt *polyprof.OptimizeReport
	var static *polyprof.StaticResult
	var err error
	t0 := time.Now()
	switch s.mode {
	case kindProfile:
		if rep, err = polyprof.ProfileWith(ctx, prog, polyprof.ProfileOptions{}); err == nil {
			static = polyprof.AnalyzeStatic(prog)
		}
	case kindOptimize:
		rep, opt, err = polyprof.OptimizeWith(ctx, prog, polyprof.ProfileOptions{}, 0)
	case modePar2:
		rep, err = polyprof.ProfileWith(ctx, prog, polyprof.ProfileOptions{ParallelDDG: parShards})
	case modeStream:
		*cks = (*cks)[:0]
		rep, err = polyprof.ProfileWith(ctx, prog, polyprof.ProfileOptions{
			EpochEvents: s.epochs,
			OnEpoch: func(ep *polyprof.Epoch) error {
				if len(ep.Checkpoint) > 0 {
					*cks = append(*cks, slices.Clone(ep.Checkpoint))
				}
				return nil
			},
		})
	case modeResume:
		var ck *polyprof.Checkpoint
		if ck, err = resumePoint(*cks, s.ckFrac); err == nil {
			rep, err = polyprof.ProfileWith(ctx, prog, polyprof.ProfileOptions{EpochEvents: s.epochs, Resume: ck})
		}
	default:
		err = fmt.Errorf("unknown mode %q", s.mode)
	}
	wall := time.Since(t0)
	if err != nil {
		return sample{}, err
	}
	e.checkStep(s, rep, opt, static)
	return sample{wall: wall, instrs: rep.Profile.DDG.TotalOps}, nil
}

// checkStep checks the outputs of one step against the reference.
func (e *env) checkStep(s step, rep *polyprof.Report, opt *polyprof.OptimizeReport, static *polyprof.StaticResult) {
	switch s.mode {
	case kindProfile:
		e.checkStatic(s.prog, static)
	case kindOptimize:
		e.checkOptimize(s.prog, opt)
	}
	e.checkReport(s.prog, s.mode, rep)
}

// resumePoint decodes the checkpoint at fraction frac of cks.
func resumePoint(cks [][]byte, frac float64) (*polyprof.Checkpoint, error) {
	if len(cks) == 0 {
		return nil, fmt.Errorf("the stream step left no checkpoint")
	}
	i := min(int(frac*float64(len(cks))), len(cks)-1)
	return polyprof.DecodeCheckpoint(cks[i])
}

// timed runs the workload with observability off and sets the
// end-to-end metrics.
func (e *env) timed(w workload, budget time.Duration, res *result) error {
	if w.Kind == kindJobs {
		c := w.Loop
		c.Dur = budget
		st, err := e.d.openLoop(e, schedule(e.cfg.seed, w.Progs, c))
		if err != nil {
			return err
		}
		res.set("wall_s", st.makespan.Seconds(), "s")
		res.set("kinstr_per_s", float64(st.instrs)/st.runWall.Seconds()/1e3, "kinstr/s")
		noteLatency(res, st.latency)
		res.note("over_limit_frac %v ratio", float64(st.overLimit)/float64(max(st.attempted, 1)))
		res.note("cache_hit_p50_ms %v ms", median(st.hitLat))
		res.note("cache_hits %d count", len(st.hitLat))
		res.note("gen_lag_p99_ms %v ms", quantile(st.lag, 0.99))
		res.note("worker_busy_frac %v ratio", st.runWall.Seconds()/(daemonWorkers*st.makespan.Seconds()))
		return nil
	}
	rounds := e.closedLoop(w, budget)
	var walls, lat []float64
	var instrs uint64
	var total time.Duration
	for _, ops := range rounds {
		var rw time.Duration
		for _, o := range ops {
			rw += o.wall
			instrs += o.instrs
			lat = append(lat, ms(o.wall))
		}
		total += rw
		walls = append(walls, rw.Seconds())
	}
	res.set("wall_s", median(walls), "s")
	res.set("kinstr_per_s", float64(instrs)/total.Seconds()/1e3, "kinstr/s")
	res.note("rounds %d count", len(rounds))
	noteLatency(res, lat)
	return nil
}

// noteLatency prints the median op latency, and the 90th percentile when
// ten samples lie beyond it, with the sample count.  They are not
// end-to-end metrics: a median that falls on one or two ops moved by up
// to a third between runs of the same code.
func noteLatency(res *result, lat []float64) {
	res.note("ops %d count", len(lat))
	res.note("op_p50_ms %v ms", median(lat))
	if tailOK(len(lat), 0.9) {
		res.note("op_p90_ms %v ms", quantile(lat, 0.9))
	}
}
