// Package budget is the resource-governance layer of the pipeline: a
// context.Context paired with hard and soft resource limits, threaded
// from cmd/polyprof and internal/serve through core.Run into the VM and
// the DDG builder.
//
// Two failure disciplines coexist, chosen per resource:
//
//   - Hard limits (wall clock, cancellation, VM steps, trace events)
//     abort the run promptly with a structured *Error.  The VM checks
//     them from an amortized watchdog so the hot interpreter loop pays
//     one integer comparison per step.
//
//   - Degrading limits (shadow-memory bytes, DDG edges) never abort.
//     Grant* calls answer false once the limit is exceeded and the DDG
//     builder folds the refused records into coarse over-approximated
//     per-range dependence summaries — the report is still produced,
//     marked degraded (see ddg.Degradation).
//
// All Budget methods are safe on a nil receiver, so unlimited callers
// simply pass nil and pay nothing.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Resource names carried by Error.Resource and ddg degradation
// metadata.
const (
	ResourceCanceled    = "canceled"     // context canceled (e.g. client disconnect)
	ResourceWall        = "wall-clock"   // deadline exceeded
	ResourceSteps       = "vm-steps"     // MaxSteps exceeded
	ResourceTraceEvents = "trace-events" // MaxTraceEvents exceeded
	ResourceShadowBytes = "shadow-bytes" // MaxShadowBytes exceeded (degrading)
	ResourceDDGEdges    = "ddg-edges"    // MaxDDGEdges exceeded (degrading)
)

// Limits configures a Budget.  Zero values mean "unlimited" for every
// field, so the zero Limits is a no-op budget.
type Limits struct {
	// Wall bounds the wall-clock duration of the run.  It is combined
	// with any deadline already on the context; the earlier one wins.
	Wall time.Duration
	// MaxSteps bounds dynamic VM steps across all passes (a hard limit;
	// the VM also has its own per-run default).
	MaxSteps uint64
	// MaxTraceEvents bounds the dynamic instruction events streamed to
	// instrumentation sinks, cumulative across passes (hard limit).
	MaxTraceEvents uint64
	// MaxShadowBytes bounds the shadow-memory tables of the DDG builder
	// (degrading: refused records are coarsened, not fatal).
	MaxShadowBytes uint64
	// MaxDDGEdges bounds distinct dependence edges in the DDG
	// (degrading: excess edges lose their exact folders and keep only a
	// bounding box).
	MaxDDGEdges uint64
}

// Unlimited reports whether no limit is set at all.
func (l Limits) Unlimited() bool {
	return l == Limits{}
}

// Budget is the live accounting state for one run.  Create with New;
// methods are nil-safe and safe for concurrent use.
type Budget struct {
	ctx         context.Context
	limits      Limits
	deadline    time.Time
	hasDeadline bool

	events atomic.Uint64 // trace events counted so far
	shadow atomic.Uint64 // shadow bytes granted so far
	edges  atomic.Uint64 // DDG edges granted so far

	shadowTripped atomic.Bool
	edgesTripped  atomic.Bool
}

// New builds a Budget from a context and limits.  A Limits.Wall
// duration is merged with any deadline already on ctx (earlier wins).
// nil is a valid *Budget meaning "unlimited"; New never returns nil so
// callers that did configure limits always get accounting.
func New(ctx context.Context, limits Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx, limits: limits}
	if dl, ok := ctx.Deadline(); ok {
		b.deadline, b.hasDeadline = dl, true
	}
	if limits.Wall > 0 {
		dl := time.Now().Add(limits.Wall)
		if !b.hasDeadline || dl.Before(b.deadline) {
			b.deadline, b.hasDeadline = dl, true
		}
	}
	return b
}

// Context returns the context the budget was built from (Background
// for a nil budget).
func (b *Budget) Context() context.Context {
	if b == nil || b.ctx == nil {
		return context.Background()
	}
	return b.ctx
}

// Check answers nil while the run may continue, or a *Error naming the
// tripped hard resource (cancellation or wall clock).  Stage names the
// pipeline stage performing the check, for the error message.
func (b *Budget) Check(stage string) error {
	if b == nil {
		return nil
	}
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			res := ResourceCanceled
			if errors.Is(err, context.DeadlineExceeded) {
				res = ResourceWall
			}
			return &Error{Resource: res, Stage: stage}
		}
	}
	if b.hasDeadline && time.Now().After(b.deadline) {
		return &Error{Resource: ResourceWall, Stage: stage, Limit: uint64(b.limits.Wall)}
	}
	return nil
}

// StepLimit returns MaxSteps, or 0 when unlimited.
func (b *Budget) StepLimit() uint64 {
	if b == nil {
		return 0
	}
	return b.limits.MaxSteps
}

// CountEvents adds n trace events to the running total and errors once
// the total exceeds MaxTraceEvents.
func (b *Budget) CountEvents(n uint64, stage string) error {
	if b == nil || b.limits.MaxTraceEvents == 0 {
		return nil
	}
	total := b.events.Add(n)
	if total > b.limits.MaxTraceEvents {
		return &Error{
			Resource: ResourceTraceEvents, Stage: stage,
			Limit: b.limits.MaxTraceEvents, Used: total,
		}
	}
	return nil
}

// GrantShadow asks for n more bytes of shadow-memory accounting.  It
// answers false when the total would exceed MaxShadowBytes, and then
// latches the shadow budget as tripped.  The counter keeps a refused
// request's bytes, so only ReleaseShadow lowers it: without releases a
// refusal is permanent, after one a later grant may succeed again.
// Callers degrade on false; they never abort.
func (b *Budget) GrantShadow(n uint64) bool {
	if b == nil || b.limits.MaxShadowBytes == 0 {
		return true
	}
	if b.shadow.Add(n) > b.limits.MaxShadowBytes {
		b.shadowTripped.Store(true)
		return false
	}
	return true
}

// GrantEdges asks for n more DDG edges, with the same degrading
// discipline as GrantShadow.
func (b *Budget) GrantEdges(n uint64) bool {
	if b == nil || b.limits.MaxDDGEdges == 0 {
		return true
	}
	if b.edges.Add(n) > b.limits.MaxDDGEdges {
		b.edgesTripped.Store(true)
		return false
	}
	return true
}

// ReleaseShadow returns n bytes of shadow accounting to the budget.
// Streaming epoch runs call it after folding-and-releasing per-record
// state at an epoch boundary, which is what lets a trace far larger
// than the ceiling run without ever tripping the degradation latch.
// Once the counter is back below the limit, later grants succeed
// again; but a release never un-trips the latch, so Tripped still
// reports a run whose grant was refused once.
func (b *Budget) ReleaseShadow(n uint64) {
	if b == nil || b.limits.MaxShadowBytes == 0 {
		return
	}
	for {
		cur := b.shadow.Load()
		next := uint64(0)
		if cur > n {
			next = cur - n
		}
		if b.shadow.CompareAndSwap(cur, next) {
			return
		}
	}
}

// ShadowLimit returns MaxShadowBytes, or 0 when unlimited; the core
// streaming driver uses it to decide whether fold-and-release is worth
// arming.
func (b *Budget) ShadowLimit() uint64 {
	if b == nil {
		return 0
	}
	return b.limits.MaxShadowBytes
}

// Tripped lists the degrading resources whose limits have been
// exceeded, in a fixed order.  Hard resources abort instead and never
// appear here.
func (b *Budget) Tripped() []string {
	if b == nil {
		return nil
	}
	var out []string
	if b.shadowTripped.Load() {
		out = append(out, ResourceShadowBytes)
	}
	if b.edgesTripped.Load() {
		out = append(out, ResourceDDGEdges)
	}
	return out
}

// Error is the structured budget-exhaustion error every stage
// surfaces.  It marshals directly into API responses.
type Error struct {
	// Resource is one of the Resource* constants.
	Resource string `json:"resource"`
	// Stage is the pipeline stage that observed the exhaustion.
	Stage string `json:"stage,omitempty"`
	// Limit is the configured cap (0 when not applicable, e.g.
	// cancellation).
	Limit uint64 `json:"limit,omitempty"`
	// Used is the amount consumed when the limit tripped.
	Used uint64 `json:"used,omitempty"`
}

func (e *Error) Error() string {
	msg := "budget: " + e.Resource + " exhausted"
	if e.Stage != "" {
		msg += " in " + e.Stage
	}
	if e.Limit > 0 {
		msg += fmt.Sprintf(" (limit %d", e.Limit)
		if e.Used > 0 {
			msg += fmt.Sprintf(", used %d", e.Used)
		}
		msg += ")"
	}
	return msg
}

// Timeout reports whether the error is deadline-shaped, so HTTP layers
// can map it to 408.
func (e *Error) Timeout() bool { return e.Resource == ResourceWall }

// Canceled reports whether the error came from context cancellation.
func (e *Error) Canceled() bool { return e.Resource == ResourceCanceled }

// AsError extracts a *Error from an error chain.
func AsError(err error) (*Error, bool) {
	var be *Error
	if errors.As(err, &be) {
		return be, true
	}
	return nil, false
}
