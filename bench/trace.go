package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"time"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/ddg"
	"polyprof/internal/feedback"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/parddg"
	"polyprof/internal/sched"
	"polyprof/internal/staticpoly"
	"polyprof/internal/trace"
	"polyprof/internal/transform"
	"polyprof/internal/vm"
)

// probeLoop is the short open loop of probe-program jobs that a traced
// run of a closed-loop workload sends to a daemon of its own, so that
// the serve, jobstore and jobexec metrics exist on every workload.
var probeLoop = loopConfig{Rate: 8, Dur: 3 * time.Second, ResubmitFrac: 0.25, MinAge: time.Second}

// probeSteps drive the probe program through every mode, so that every
// per-layer metric has a value on every workload.
var probeSteps = []step{
	{prog: probeProgram, mode: kindProfile},
	{prog: probeProgram, mode: kindOptimize},
	{prog: probeProgram, mode: modePar2},
	{prog: probeProgram, mode: modeStream, epochs: probeEpochs},
	{prog: probeProgram, mode: modeResume, epochs: probeEpochs, ckFrac: 0.5},
}

// tracer is the state of a traced run: one enabled registry that every
// layer call records its spans and counters into, and the per-layer
// sums.  Each duration sums the calls of one layer.
type tracer struct {
	reg *obs.Registry
	sc  obs.Scope // nests under the run's root span

	pass1, pass2IIV, pass2Sink, pass2DDG, foldFinish time.Duration
	// seqDDG and par are pass 2 plus the fold with the builder and with
	// the sharded engine, on the programs of par2 steps.
	seqDDG, par                                time.Duration
	sched, feedback, transform, static, resume time.Duration

	vmInstrs, vmMemEvents, pass2Instrs uint64
	fold                               foldCounts

	epochs    int
	epochGaps []float64 // ms between OnEpoch callbacks
	ckBytes   []float64 // size of each checkpoint
	heapPeak  float64   // MiB of heap objects at the fullest epoch boundary

	// untraced and traced time the same closed-loop ops, run as timed
	// runs run them and layer by layer under spans; pairs counts them.
	untraced, traced time.Duration
	pairs            int
	loop             *loopStats
}

// foldCounts are the builder's fold-stage counters.
type foldCounts struct{ streams, exact, pieces, depPoints, depsEmitted uint64 }

func (t *tracer) foldCounts() foldCounts {
	return foldCounts{
		streams:     t.reg.Counter("fold.streams").Value(),
		exact:       t.reg.Counter("fold.streams.exact").Value(),
		pieces:      t.reg.Histogram("fold.multi.pieces").Sum(),
		depPoints:   t.reg.Counter("ddg.dep.points.total").Value(),
		depsEmitted: t.reg.Counter("ddg.deps.emitted").Value(),
	}
}

// addGrowth adds what the counters grew by since before.
func (c *foldCounts) addGrowth(before, after foldCounts) {
	c.streams += after.streams - before.streams
	c.exact += after.exact - before.exact
	c.pieces += after.pieces - before.pieces
	c.depPoints += after.depPoints - before.depPoints
	c.depsEmitted += after.depsEmitted - before.depsEmitted
}

// call runs one layer entry point under a span named for the layer and
// returns its wall time.  f receives the scope nested under that span.
func (t *tracer) call(sc obs.Scope, layer string, f func(obs.Scope) error) (time.Duration, error) {
	sp := sc.StartSpan("layer:" + layer)
	defer sp.End()
	t0 := time.Now()
	err := f(sc.WithSpan(sp))
	d := time.Since(t0)
	sp.Fail(err)
	return d, err
}

// noopSink is a pass-2 sink that does nothing: a pass with it costs what
// computing each instruction's context key and coordinates costs.
type noopSink struct{}

func (noopSink) OnControl(trace.ControlEvent)                          {}
func (noopSink) OnInstr(string, []int64, trace.InstrEvent, *isa.Instr) {}

// traced runs the workload with every layer entry point called on its
// own under a span, and sets the per-layer metrics.  Closed-loop ops run
// twice, as the timed run runs them and layer by layer; the gap is
// trace_overhead_pct.  It writes trace.json, layers.json and cpu.pprof.
func (e *env) traced(w workload, budget time.Duration, res *result) error {
	dir := filepath.Join(e.cfg.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := &tracer{reg: obs.NewRegistry()}
	t.reg.SetEnabled(true)
	root := t.reg.StartSpan("bench:" + w.Name)
	t.sc = t.reg.Scope().WithSpan(root)
	e.tr = t

	profPath := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	defer f.Close()
	cpu0 := readCPUTimes()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	err = e.tracedOps(w, budget)
	pprof.StopCPUProfile()
	cpu1 := readCPUTimes()
	root.End()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return err
	}

	reg := t.reg
	res.set("pass1.ms", ms(t.pass1), "ms")
	res.set("vm.instrs", float64(t.vmInstrs), "count")
	res.set("vm.mem_events", float64(t.vmMemEvents), "count")
	res.set("pass2_iiv.ms", ms(t.pass2IIV), "ms")
	res.set("pass2_sink.ms", ms(t.pass2Sink), "ms")
	ddgTime := t.pass2DDG - t.pass2Sink
	res.set("ddg.ms", ms(ddgTime), "ms")
	res.set("ddg.ns_per_instr", float64(ddgTime)/float64(t.pass2Instrs), "ns")
	res.set("ddg.dep_points", float64(t.fold.depPoints), "count")
	res.set("ddg.deps_emitted", float64(t.fold.depsEmitted), "count")
	res.set("fold.finish_ms", ms(t.foldFinish), "ms")
	res.set("fold.streams", float64(t.fold.streams), "count")
	res.set("fold.exact_ratio", float64(t.fold.exact)/float64(t.fold.streams), "ratio")
	res.set("fold.pieces", float64(t.fold.pieces), "count")
	res.set("parddg.ms", ms(t.par), "ms")
	res.set("parddg.speedup", t.seqDDG.Seconds()/t.par.Seconds(), "x")
	res.set("parddg.batches", float64(reg.Counter("parddg.batches").Value()), "count")
	res.set("stream.epochs", float64(t.epochs), "count")
	res.set("stream.epoch_p50_ms", median(t.epochGaps), "ms")
	res.set("stream.checkpoint_bytes", median(t.ckBytes), "bytes")
	res.set("stream.resume_ms", ms(t.resume), "ms")
	res.set("stream.heap_peak_mb", t.heapPeak, "MiB")
	res.set("sched.ms", ms(t.sched), "ms")
	res.set("sched.fm_queries", float64(reg.Counter("sched.fm.queries").Value()), "count")
	res.set("feedback.ms", ms(t.feedback), "ms")
	res.set("transform.ms", ms(t.transform), "ms")
	res.set("transform.variants_verified", float64(reg.Counter("transform.variants_verified").Value()), "count")
	res.set("transform.variants_refused", float64(reg.Counter("transform.variants_refused").Value()), "count")
	res.set("staticpoly.ms", ms(t.static), "ms")
	l := t.loop
	res.set("http.submit_p50_ms", median(l.submitLat), "ms")
	res.set("wal.fsync_p50_ms", l.fsyncP50, "ms")
	res.set("jobs.queue_wait_p50_ms", median(l.queueWait), "ms")
	res.set("jobs.run_p50_ms", median(l.run), "ms")
	res.set("jobs.cache_hits", float64(l.cacheHits), "count")
	res.set("gen.lag_p99_ms", quantile(l.lag, 0.99), "ms")
	res.set("cpu.fold_pct", shares["polyprof/internal/fold"], "%")
	res.set("cpu.bigmath_pct", shares["math/big"], "%")
	res.set("cpu.gc_pct", 100*(cpu1.gc-cpu0.gc)/(cpu1.busy-cpu0.busy), "%")
	res.set("trace_overhead_pct", 100*(t.traced-t.untraced).Seconds()/t.untraced.Seconds(), "%")

	spans := reg.Snapshot().Spans
	if err := obs.WriteChromeTrace(filepath.Join(dir, "trace.json"), spans); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(map[string]any{
		"workload": w.Name,
		"seed":     e.cfg.seed,
		"metrics":  res.Metrics,
		"spans":    spanTimes(spans),
	}, "", "  ")
	if err != nil {
		return err
	}
	res.note("trace_dir %s path", dir)
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(layers, '\n'), 0o644)
}

// tracedOps runs the traced workload: the workload's own ops, then the
// probe steps, and for a closed-loop workload the probe loop against a
// daemon of its own.
func (e *env) tracedOps(w workload, budget time.Duration) error {
	if w.Kind == kindJobs {
		c := w.Loop
		c.Dur = budget
		st, err := e.d.openLoop(e, schedule(e.cfg.seed, w.Progs, c))
		if err != nil {
			return err
		}
		e.tr.loop = st
	} else {
		forRounds(w, e.cfg.seed, budget, func(steps []step) {
			var cks, tcks [][]byte
			for _, s := range steps {
				e.pairStep(s, &cks, &tcks)
			}
		})
	}
	var cks, tcks [][]byte
	for _, s := range probeSteps {
		e.pairStep(s, &cks, &tcks)
	}
	if e.d != nil {
		return nil
	}
	progs := []string{probeProgram}
	if err := e.startDaemon(progs); err != nil {
		return err
	}
	var err error
	e.tr.loop, err = e.d.openLoop(e, schedule(e.cfg.seed, progs, probeLoop))
	return err
}

// pairStep runs one closed-loop step as the timed run does and layer by
// layer under spans, alternating which goes first so that neither side
// always meets the colder caches; both outputs are checked.  cks and
// tcks carry the two sides' checkpoints from a stream step to its resume
// step.
func (e *env) pairStep(s step, cks, tcks *[][]byte) {
	var untraced, traced time.Duration
	timed := func() error {
		smp, err := e.runStep(s, cks)
		untraced = smp.wall
		return err
	}
	layered := func() (err error) {
		traced, err = e.tr.step(e, s, tcks)
		return err
	}
	sides := []func() error{timed, layered}
	if e.tr.pairs%2 == 1 {
		sides[0], sides[1] = layered, timed
	}
	e.tr.pairs++
	for _, side := range sides {
		e.attempted++
		if err := side(); err != nil {
			e.opFailed(s.mode+" "+s.prog, err)
			return
		}
	}
	e.tr.untraced += untraced
	e.tr.traced += traced
}

// step runs one closed-loop step layer by layer and checks its outputs.
// It returns the time of the calls the public entry point would make.
func (t *tracer) step(e *env, s step, cks *[][]byte) (time.Duration, error) {
	prog := e.progs[s.prog]
	sp := t.sc.StartSpan("op:" + s.mode + " " + s.prog)
	defer sp.End()
	sc := t.sc.WithSpan(sp)
	if s.mode == modeStream || s.mode == modeResume {
		rep, d, err := t.stream(sc, prog, s, cks)
		if err != nil {
			sp.Fail(err)
			return 0, err
		}
		e.checkStep(s, rep, nil, nil)
		return d, nil
	}
	p, m, rep, wall, err := t.pipeline(sc, prog, s.mode == modePar2)
	if err != nil {
		sp.Fail(err)
		return 0, err
	}
	var opt *transform.Report
	var static *staticpoly.Result
	switch s.mode {
	case kindProfile:
		d, _ := t.call(sc, "staticpoly", func(obs.Scope) error {
			static = staticpoly.Analyze(prog)
			return nil
		})
		t.static += d
		wall += d
	case kindOptimize:
		d, err := t.call(sc, "transform", func(sc obs.Scope) (err error) {
			p.Obs = sc
			opt, err = transform.Optimize(p, m, rep.AllTransforms(), transform.Options{Obs: sc})
			return err
		})
		if err != nil {
			sp.Fail(err)
			return 0, err
		}
		t.transform += d
		wall += d
	}
	e.checkStep(s, rep, opt, static)
	return wall, nil
}

// pipeline profiles prog one layer entry point at a time: pass 1,
// pass 2 with no sink, with a no-op sink and with the dependence
// builder, the fold, the scheduler and the feedback analysis.  With par,
// pass 2 and the fold run once more on the sharded engine, whose graph
// the profile then holds.  wall sums the calls the public pipeline makes.
func (t *tracer) pipeline(sc obs.Scope, prog *isa.Program, par bool) (p *core.Profile, m *sched.Model, rep *feedback.Report, wall time.Duration, err error) {
	var st *core.Structure
	d, err := t.call(sc, "pass1", func(sc obs.Scope) (err error) {
		st, err = core.AnalyzeStructureScoped(prog, nil, sc, nil)
		return err
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	t.pass1 += d
	wall += d
	t.vmInstrs += st.Stats.Ops
	t.vmMemEvents += st.Stats.MemOps

	d, err = t.call(sc, "pass2-iiv", func(sc obs.Scope) error {
		_, _, err := core.RunPass2Scoped(prog, st, nil, nil, sc, nil)
		return err
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	t.pass2IIV += d
	d, err = t.call(sc, "pass2-sink", func(sc obs.Scope) error {
		_, _, err := core.RunPass2Scoped(prog, st, noopSink{}, nil, sc, nil)
		return err
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	t.pass2Sink += d

	var p2 *core.Pass2
	var stats vm.Stats
	var b *ddg.Builder
	dp, err := t.call(sc, "pass2-ddg", func(sc obs.Scope) (err error) {
		opts := ddg.DefaultOptions()
		opts.Obs = sc
		b = ddg.NewBuilder(prog, opts)
		p2, stats, err = core.RunPass2Scoped(prog, st, b, nil, sc, nil)
		return err
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	var g *ddg.Graph
	before := t.foldCounts()
	df, err := t.call(sc, "fold-finish", func(obs.Scope) (err error) {
		g, err = b.FinishChecked()
		return err
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	t.fold.addGrowth(before, t.foldCounts())
	t.pass2DDG += dp
	t.pass2Instrs += stats.Ops
	t.foldFinish += df
	if par {
		t.seqDDG += dp + df
		if p2, stats, g, d, err = t.parDDG(sc, prog, st); err != nil {
			return nil, nil, nil, 0, err
		}
		t.par += d
		wall += d
	} else {
		wall += dp + df
	}

	p = &core.Profile{Prog: prog, Structure: st, Tree: p2.Tree, DDG: g, Stats: stats}
	d, _ = t.call(sc, "sched", func(sc obs.Scope) error {
		p.Obs = sc
		m = sched.Build(p)
		return nil
	})
	t.sched += d
	wall += d
	d, _ = t.call(sc, "feedback", func(sc obs.Scope) error {
		p.Obs = sc
		rep = feedback.AnalyzeModel(p, m)
		return nil
	})
	t.feedback += d
	wall += d
	return p, m, rep, wall, nil
}

// parDDG runs pass 2 and the fold on the sharded engine and returns
// their time together.
func (t *tracer) parDDG(sc obs.Scope, prog *isa.Program, st *core.Structure) (*core.Pass2, vm.Stats, *ddg.Graph, time.Duration, error) {
	opts := ddg.DefaultOptions()
	opts.Obs = sc
	eng := parddg.NewEngine(prog, parddg.Options{Shards: parShards, DDG: opts})
	defer eng.Close() // a no-op after FinishChecked
	var p2 *core.Pass2
	var stats vm.Stats
	dp, err := t.call(sc, "pass2-parddg", func(sc obs.Scope) (err error) {
		p2, stats, err = core.RunPass2Scoped(prog, st, eng, nil, sc, nil)
		return err
	})
	if err != nil {
		return nil, vm.Stats{}, nil, 0, err
	}
	var g *ddg.Graph
	df, err := t.call(sc, "parddg-finish", func(obs.Scope) (err error) {
		g, err = eng.FinishChecked()
		return err
	})
	return p2, stats, g, dp + df, err
}

// stream runs a stream or resume step through core.Run, where the
// public streaming options lead, timing the gaps between epoch
// callbacks.  A stream step leaves its checkpoints in cks.
func (t *tracer) stream(sc obs.Scope, prog *isa.Program, s step, cks *[][]byte) (*feedback.Report, time.Duration, error) {
	opts := core.DefaultRunOptions()
	opts.Budget = budget.New(context.Background(), budget.Limits{})
	opts.EpochEvents = s.epochs
	layer := "stream"
	var last time.Time
	if s.mode == modeResume {
		layer = "resume"
		ck, err := resumePoint(*cks, s.ckFrac)
		if err != nil {
			return nil, 0, err
		}
		opts.Resume = ck
	} else {
		*cks = (*cks)[:0]
		opts.OnEpoch = func(ep *core.Epoch) error {
			now := time.Now()
			t.epochGaps = append(t.epochGaps, ms(now.Sub(last)))
			last = now
			t.epochs++
			t.heapPeak = max(t.heapPeak, heapObjectsMiB())
			if len(ep.Checkpoint) > 0 {
				t.ckBytes = append(t.ckBytes, float64(len(ep.Checkpoint)))
				*cks = append(*cks, slices.Clone(ep.Checkpoint))
			}
			return nil
		}
	}
	var rep *feedback.Report
	d, err := t.call(sc, layer, func(sc obs.Scope) error {
		opts.Obs = sc
		last = time.Now()
		p, err := core.Run(prog, opts)
		if err != nil {
			return err
		}
		rep, err = feedback.AnalyzeChecked(p)
		return err
	})
	if s.mode == modeResume {
		t.resume += d
	}
	return rep, d, err
}

// spanTime is the total and self time of the spans of one name: self
// time leaves out the time of child spans.
type spanTime struct {
	Count  int     `json:"count"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
}

func spanTimes(spans []obs.SpanRecord) map[string]*spanTime {
	children := map[uint64]time.Duration{}
	for _, s := range spans {
		children[s.Parent] += s.Wall
	}
	out := map[string]*spanTime{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTime{}
			out[s.Name] = st
		}
		st.Count++
		st.WallMS += ms(s.Wall)
		st.SelfMS += ms(s.Wall - children[s.ID])
	}
	return out
}
