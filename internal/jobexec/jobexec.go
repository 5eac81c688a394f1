// Package jobexec executes one attempt of one durable job: materialize
// the program, run the pipeline under a budget with its own span tree
// and registry, and fold the outcome into a jobstore.Result.  It is the
// shared attempt runner behind both the in-process worker pool (the
// serve daemon's default) and remote lease-holding workers
// (`polyprof work`), so an attempt behaves identically — budgets,
// degradation, error classification, span naming — no matter which
// process runs it.
package jobexec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/faultinject"
	"polyprof/internal/feedback"
	"polyprof/internal/isa"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
	"polyprof/internal/transform"
	"polyprof/internal/workloads"
)

// attemptFault injects at the top of each attempt, before the program
// is materialized — the chaos hook for a worker that wedges (delay) or
// fails (error/budget/panic) mid-attempt.  checkpointFault injects at
// the checkpoint-persist boundary of a streaming attempt: the attempt
// dies mid-epoch and the retry must resume from the last epoch whose
// checkpoint committed.
var (
	attemptFault    = faultinject.Point("jobexec.attempt")
	checkpointFault = faultinject.Point("jobexec.checkpoint")
)

// CheckpointStore persists and recalls epoch checkpoints for one job.
// The serve daemon backs it with jobstore (WAL-committed); remote
// workers back it with the coordinator's lease-fenced checkpoint
// endpoint.  Save returning nil means the epoch is committed.
type CheckpointStore interface {
	Save(epoch, events uint64, data []byte) error
	// Load returns the latest committed checkpoint, or ok == false when
	// the attempt must start from event zero.
	Load() (data []byte, ok bool)
}

// Provisional is the rendered per-epoch report of a streaming attempt,
// pushed to Options.OnProvisional for live progress streaming.  Its
// dependence set only ever grows in later epochs.
type Provisional struct {
	Epoch  uint64          `json:"epoch"`
	Events uint64          `json:"events"`
	Report json.RawMessage `json:"report"`
}

// Options tunes one attempt.
type Options struct {
	// Limits are the attempt's resource budgets (zero fields
	// unlimited).
	Limits budget.Limits
	// Timeout bounds the attempt's wall clock (<= 0 disables).
	Timeout time.Duration
	// ParallelDDG selects the sharded parallel dependence engine with
	// that many shard workers; 0 keeps the sequential builder.
	ParallelDDG int
	// Registry records the attempt's span tree and metric deltas.  The
	// caller creates it enabled and owns it: it reads live progress
	// from it (Registry.Stage), wires Registry.OnStage to its own
	// persistence or trace shipping, and merges or ships it afterwards.
	Registry *obs.Registry

	// Optimize runs the schedule-application engine after analysis:
	// suggested schedules are applied, re-measured under the VM
	// cycle/cache model, and the verified results land in the report's
	// "optimization" section.  Measurement re-executions charge the same
	// budget as the profiled run.
	Optimize bool
	// TileSize is the rectangular tile edge for Optimize
	// (transform.DefaultTileSize when 0).
	TileSize int

	// EpochEvents, when positive, runs the attempt in streaming mode:
	// pass 2 pauses every EpochEvents dynamic instructions, renders a
	// provisional report, and commits a resume checkpoint.
	EpochEvents uint64
	// Checkpoints persists epoch checkpoints and supplies the one a
	// resumed attempt restores from (nil: stream without durability).
	Checkpoints CheckpointStore
	// OnProvisional receives the rendered report after each epoch (nil
	// skips the per-epoch render entirely).
	OnProvisional func(Provisional)
	// OnResume is told when the attempt restored from a committed
	// checkpoint instead of starting at event zero (for lifecycle
	// tracing).
	OnResume func(epoch, events uint64)
}

// Program materializes the program a job profiles.  Errors here are
// terminal by construction (never ErrRetryable, never budget timeouts):
// an unknown workload, an undecodable body, or a structurally invalid
// program fails identically on every attempt.
func Program(job *jobstore.Job) (*isa.Program, error) {
	switch job.Kind {
	case jobstore.KindWorkload:
		spec := workloads.ByName(job.Workload)
		if spec == nil {
			return nil, fmt.Errorf("unknown workload %q", job.Workload)
		}
		return spec.Build(), nil
	case jobstore.KindProgram:
		prog, err := isa.DecodeJSON(job.Program)
		if err != nil {
			return nil, err
		}
		// Validate eagerly for a precise error; the VM re-validates
		// before execution regardless.
		if err := prog.Validate(); err != nil {
			return nil, fmt.Errorf("program rejected: %w", err)
		}
		return prog, nil
	default:
		return nil, fmt.Errorf("unknown job kind %q", job.Kind)
	}
}

// Run executes one attempt, recording its span tree
// ("job:<name>#<attempt>" root, one child span per pipeline stage) and
// metric deltas into opts.Registry.  The Result is always non-nil with
// Status already classified.  The error is the pipeline error (nil on
// success) for the caller's retry/quarantine decision.
func Run(ctx context.Context, job *jobstore.Job, attempt int, opts Options) (*jobstore.Result, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	reg := opts.Registry
	root := reg.Scope().StartSpan(fmt.Sprintf("job:%s#%d", job.Name(), attempt))
	sc := reg.Scope().WithSpan(root)
	res := &jobstore.Result{Status: "ok", SpanID: root.ID()}
	start := time.Now()

	bud := budget.New(ctx, opts.Limits)
	err := func() error {
		if err := attemptFault.Hit(); err != nil {
			return err
		}
		prog, err := Program(job)
		if err != nil {
			return err
		}
		ro := core.DefaultRunOptions()
		ro.Obs = sc
		ro.Budget = bud
		ro.ParallelDDG = opts.ParallelDDG
		if opts.EpochEvents > 0 {
			ro.EpochEvents = opts.EpochEvents
			ro.OnEpoch = epochHook(opts)
			if opts.Checkpoints != nil {
				if data, ok := opts.Checkpoints.Load(); ok {
					ck, derr := core.DecodeCheckpoint(data)
					if derr != nil {
						// Resuming is an optimization; a fresh start is
						// always sound.  Record the corruption and run
						// from event zero.
						flight.LogEvent(flight.Event{Kind: "stream", Name: "resume-rejected", Trace: job.TraceID,
							Detail: fmt.Sprintf("job %s: %v; starting from event zero", job.ID, derr)})
					} else {
						ro.Resume = ck
						if opts.OnResume != nil {
							opts.OnResume(ck.Epoch, ck.Events)
						}
					}
				}
			}
		}
		p, err := core.Run(prog, ro)
		if err != nil {
			return err
		}
		rep, err := feedback.AnalyzeChecked(p)
		if err != nil {
			return err
		}
		var optJSON json.RawMessage
		if opts.Optimize {
			optJSON, err = runOptimize(sc, p, rep, bud, opts)
			if err != nil {
				return err
			}
		}
		cm := feedback.DefaultCostModel()
		data, err := rep.JSONWith(&cm, optJSON)
		if err != nil {
			return err
		}
		res.Report = data
		res.Ops = p.DDG.TotalOps
		if d := p.DDG.Degraded; d != nil {
			res.Degraded = true
			res.Budget = d.Budgets
		}
		root.AddEvents(p.DDG.TotalOps)
		return nil
	}()
	if err != nil {
		root.Fail(err)
		res.Status = Classify(err)
	}
	root.End()
	res.WallNS = int64(time.Since(start))
	return res, err
}

// runOptimize is the optional transform stage: apply the suggested
// schedules, re-measure, verify, and marshal the engine's report for
// embedding.  A panic inside the engine is contained here exactly like
// a pipeline-stage panic (a *core.StagePanic: the attempt fails, the
// daemon survives).
func runOptimize(sc obs.Scope, p *core.Profile, rep *feedback.Report, bud *budget.Budget, opts Options) (data json.RawMessage, err error) {
	sp := sc.StartSpan("transform")
	defer sp.End()
	defer core.RecoverStage("transform", sp, &err)
	opt, err := transform.Optimize(p, rep.Model, rep.AllTransforms(), transform.Options{
		TileSize: opts.TileSize,
		Obs:      sc.WithSpan(sp),
		Budget:   bud,
	})
	if err != nil {
		sp.Fail(err)
		return nil, err
	}
	return json.Marshal(opt)
}

// epochHook builds the per-boundary callback of a streaming attempt:
// render the provisional report (only when someone is listening), then
// commit the checkpoint.  In that order — a checkpoint must never
// outrun what has been reported — and any failure aborts the attempt
// as retryable: the retry resumes from the last epoch whose checkpoint
// actually committed.
func epochHook(opts Options) func(*core.Epoch) error {
	return func(ep *core.Epoch) error {
		if opts.OnProvisional != nil && ep.Provisional != nil {
			prov := ep.Provisional
			// Detached disabled registry: per-epoch analysis must not
			// pollute the attempt's span tree or the global metrics.
			prov.Obs = obs.NewRegistry().Scope()
			rep, err := feedback.AnalyzeChecked(prov)
			if err != nil {
				return fmt.Errorf("provisional analysis at epoch %d: %w", ep.N, err)
			}
			cm := feedback.DefaultCostModel()
			data, err := rep.JSON(&cm)
			if err != nil {
				return fmt.Errorf("provisional report at epoch %d: %w", ep.N, err)
			}
			opts.OnProvisional(Provisional{Epoch: ep.N, Events: ep.Events, Report: data})
		}
		if opts.Checkpoints != nil && len(ep.Checkpoint) > 0 {
			if err := checkpointFault.Hit(); err != nil {
				return fmt.Errorf("checkpoint at epoch %d: %w", ep.N, errors.Join(err, jobstore.ErrRetryable))
			}
			if err := opts.Checkpoints.Save(ep.N, ep.Events, ep.Checkpoint); err != nil {
				return fmt.Errorf("checkpoint at epoch %d: %w", ep.N, errors.Join(err, jobstore.ErrRetryable))
			}
		}
		return nil
	}
}

// Classify maps a pipeline error to a result status: budget aborts
// split into timeout/canceled/budget, anything else is a plain error.
func Classify(err error) string {
	be, ok := budget.AsError(err)
	switch {
	case !ok:
		return "error"
	case be.Timeout():
		return "timeout"
	case be.Canceled():
		return "canceled"
	default:
		return "budget"
	}
}
