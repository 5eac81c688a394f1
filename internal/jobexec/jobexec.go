// Package jobexec executes one attempt of one job: materialize the
// program, run the pipeline under a budget with its own span tree and
// registry, and fold the outcome into a jobstore.Result.  It is the
// daemon's only attempt runner — behind synchronous /v1/profile
// requests (an unpersisted workload job), the in-process worker pool
// and remote lease-holding workers (`polyprof work`) — so an attempt
// behaves identically — budgets, degradation, error classification,
// panic containment — no matter which path or process runs it.
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
	"polyprof/internal/transform"
	"polyprof/internal/workloads"
)

// attemptFault injects at the top of each attempt, synchronous ones
// included, before the program is materialized — the chaos hook for a
// worker that wedges (delay) or fails (error/budget/panic) mid-attempt.
// checkpointFault injects at the checkpoint-persist boundary of a
// streaming attempt: the attempt dies mid-epoch and the retry must
// resume from the last epoch whose checkpoint committed.
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

// Options tunes how this process runs one attempt.  What the attempt
// computes — the program, its epoch grid (Job.EpochEvents) and whether
// it optimizes (Job.Optimize) — is the job's own spec, so every path
// runs a job the same way.
type Options struct {
	// Limits are the attempt's resource budgets (zero fields
	// unlimited).
	Limits budget.Limits
	// Timeout bounds the attempt's wall clock (<= 0 disables).
	Timeout time.Duration
	// Registry records the attempt's span tree and metric deltas.  The
	// caller creates it enabled and owns it: it reads live progress
	// from it (Registry.Stage), wires Registry.OnStage to its own
	// persistence or trace shipping, and merges or ships it afterwards.
	Registry *obs.Registry

	// Checkpoints persists epoch checkpoints and supplies the one a
	// resumed attempt restores from (nil: stream without durability).
	Checkpoints CheckpointStore
	// OnProvisional receives the rendered report after each epoch (nil
	// skips the per-epoch fold and render entirely).
	OnProvisional func(Provisional)
	// OnResume receives the attempt's resume decision as a lifecycle
	// trace event: TraceResume when it restored from a committed
	// checkpoint, TraceResumeRejected when the checkpoint did not decode
	// and it started from event zero.  The caller stamps At and Attempt.
	OnResume func(jobstore.TraceEvent)
}

// program materializes the program a job profiles.  Errors here are
// terminal by construction (never ErrRetryable, never budget timeouts):
// an unknown workload, an undecodable body, or a structurally invalid
// program fails identically on every attempt.
func program(job *jobstore.Job) (*isa.Program, error) {
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

// Run executes one attempt, recording its span tree (a root span named
// root — "request:<workload>" or "job:<name>#<attempt>" — with one
// child span per pipeline stage) and metric deltas into opts.Registry.
// The Result is always non-nil with Status already classified.  The
// error is the pipeline error (nil on success) for the caller's
// retry/quarantine decision.
//
// A panic anywhere in the attempt — the fault point, program build, an
// epoch hook, report rendering, the pipeline outside a stage's own
// recovery — is contained here: the attempt ends with Status "panic"
// and a retryable error, and the caller's process keeps serving.
func Run(ctx context.Context, job *jobstore.Job, root string, opts Options) (*jobstore.Result, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	sp := opts.Registry.Scope().StartSpan(root)
	res := &jobstore.Result{Status: "ok", SpanID: sp.ID()}
	start := time.Now()
	panicked := false
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				err = fmt.Errorf("attempt panicked: %v: %w", r, jobstore.ErrRetryable)
			}
		}()
		return attempt(ctx, job, opts.Registry.Scope().WithSpan(sp), res, opts)
	}()
	if err != nil {
		sp.Fail(err)
		res.Status = classify(err)
		if panicked {
			res.Status = "panic"
		}
	}
	sp.End()
	res.WallNS = int64(time.Since(start))
	return res, err
}

// attempt is the body of Run: build the program, run the pipeline and
// the optional transform stage, and render the report into res.
func attempt(ctx context.Context, job *jobstore.Job, sc obs.Scope, res *jobstore.Result, opts Options) error {
	if err := attemptFault.Hit(); err != nil {
		return err
	}
	prog, err := program(job)
	if err != nil {
		return err
	}
	ro := core.DefaultRunOptions()
	ro.Obs = sc
	ro.Budget = budget.New(ctx, opts.Limits)
	if job.EpochEvents > 0 {
		ro.EpochEvents = job.EpochEvents
		ro.OnEpoch = epochHook(opts)
		ro.Resume = resumePoint(job, opts)
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
	if job.Optimize {
		// Suggested schedules are applied, re-measured under the VM
		// cycle/cache model, and the verified results land in the
		// report's "optimization" section; measurement re-executions
		// charge the attempt's budget.
		opt, err := transform.Optimize(p, rep.Model, rep.AllTransforms(), transform.Options{Obs: sc, Budget: ro.Budget})
		if err != nil {
			return err
		}
		if optJSON, err = json.Marshal(opt); err != nil {
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
	sc.Span().AddEvents(p.DDG.TotalOps)
	return nil
}

// resumePoint decodes the job's latest committed checkpoint, or
// returns nil for a start from event zero.
func resumePoint(job *jobstore.Job, opts Options) *core.Checkpoint {
	if opts.Checkpoints == nil {
		return nil
	}
	data, ok := opts.Checkpoints.Load()
	if !ok {
		return nil
	}
	ck, err := core.DecodeCheckpoint(data)
	ev := jobstore.TraceEvent{Event: jobstore.TraceResume}
	if err == nil {
		ev.Detail = fmt.Sprintf("resumed from committed epoch %d (%d events)", ck.Epoch, ck.Events)
	} else {
		// Resuming is an optimization; a fresh start is always sound.
		// Record the corruption and run from event zero.
		ev.Event, ck = jobstore.TraceResumeRejected, nil
		ev.Detail = fmt.Sprintf("job %s: %v; starting from event zero", job.ID, err)
	}
	if opts.OnResume != nil {
		opts.OnResume(ev)
	}
	return ck
}

// epochHook builds the per-boundary callback of a streaming attempt:
// fold and render the provisional report (only when someone is
// listening), then commit the checkpoint.  In that order — a checkpoint
// must never outrun what has been reported — and any failure aborts
// the attempt as retryable: the retry resumes from the last epoch
// whose checkpoint actually committed.
func epochHook(opts Options) func(*core.Epoch) error {
	return func(ep *core.Epoch) error {
		if opts.OnProvisional != nil {
			prov, err := ep.Provisional()
			if err != nil {
				return err
			}
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

// classify maps a pipeline error to a result status: budget aborts
// split into timeout/canceled/budget, anything else is a plain error.
func classify(err error) string {
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
