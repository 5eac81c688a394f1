package obs

import (
	"sync/atomic"
	"time"
)

// Span measures one pipeline stage: wall time between StartSpan and
// End, plus an event count the stage reports (dynamic instructions,
// folded streams, dependencies analyzed, ...), from which the record
// derives an events/sec throughput.  Spans form a tree: a span started
// from a Scope nests under the scope's parent span, and a span started
// directly on a registry nests under the registry's innermost active
// span, so the rendered trace shows the stage structure (pass1 under a
// workload, sched-build under a request root, ...).
//
// A span directly under a root span is a stage span: the pipeline's
// stages (pass1-structure, pass2-ddg, fold-finish, ...) under a job or
// request root.  Registry.Stage reads the newest open one live, and
// Registry.OnStage announces each as it starts.
//
// Like the registry, a Span is safe for concurrent use: AddEvents may
// be called from multiple goroutines, and a concurrent End closes the
// span exactly once (events added after End lose the race and are
// dropped).
//
// A span obtained from a disabled registry is a shared no-op; all its
// methods return immediately.
type Span struct {
	reg    atomic.Pointer[Registry]
	name   string
	id     uint64
	parent uint64
	depth  int
	start  time.Time
	events atomic.Uint64
	// total is the expected event count, fixed at start (0: unknown).
	total  uint64
	errMsg atomic.Pointer[string]
}

// SpanRecord is one finished stage span.  Track optionally names the
// Chrome-trace row the record renders on (defaulting to Name): a job's
// lifecycle timeline groups its queue-wait, attempt and stage records
// on a few "job/..." rows instead of one row per record name.
type SpanRecord struct {
	Name         string        `json:"name"`
	Track        string        `json:"track,omitempty"`
	ID           uint64        `json:"id,omitempty"`
	Parent       uint64        `json:"parent,omitempty"`
	Depth        int           `json:"depth"`
	Start        time.Time     `json:"start,omitzero"`
	Wall         time.Duration `json:"wall_ns"`
	Events       uint64        `json:"events,omitempty"`
	EventsPerSec float64       `json:"events_per_sec,omitempty"`
	// Status is "ok" or "error"; Err carries the message recorded by
	// Fail when Status is "error".
	Status string `json:"status,omitempty"`
	Err    string `json:"error,omitempty"`
}

var noopSpan = &Span{}

// StartSpan opens a span nested under the registry's innermost active
// span; call End on the returned span when the stage completes.
func (r *Registry) StartSpan(name string) *Span {
	return r.startSpan(name, 0, nil, false)
}

// startSpan opens a span expecting total events.  With explicit set,
// parent names the parent span (nil for a root); otherwise the
// innermost active span is the parent, preserving the implicit stack
// nesting of plain StartSpan.  A stage span is announced to the
// OnStage hook after r.mu is released.
func (r *Registry) startSpan(name string, total uint64, parent *Span, explicit bool) *Span {
	if !r.enabled.Load() {
		return noopSpan
	}
	r.mu.Lock()
	if !explicit && len(r.active) > 0 {
		parent = r.active[len(r.active)-1]
	}
	s := &Span{name: name, id: r.nextSpanID.Add(1), start: time.Now(), total: total}
	if parent != nil && parent.id != 0 {
		s.parent = parent.id
		s.depth = parent.depth + 1
	}
	s.reg.Store(r)
	r.active = append(r.active, s)
	r.mu.Unlock()
	if h := r.onStage.Load(); h != nil && s.depth == 1 {
		(*h)(name)
	}
	return s
}

// OnStage installs (nil removes) the hook that receives the name of
// every stage span as it starts.  The hook runs outside the registry
// lock, so it may take locks of its own — the job store's — and call
// Stage; the one lock order is store lock, then registry lock.
func (r *Registry) OnStage(f func(stage string)) {
	if f == nil {
		r.onStage.Store(nil)
		return
	}
	r.onStage.Store(&f)
}

// Stage returns the newest open stage span with its live event count
// and expected total; ok is false while no stage span is open.
func (r *Registry) Stage() (name string, events, total uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.active) - 1; i >= 0; i-- {
		if s := r.active[i]; s.depth == 1 {
			return s.name, s.events.Load(), s.total, true
		}
	}
	return "", 0, 0, false
}

// AddEvents accumulates the stage's processed-event count.
func (s *Span) AddEvents(n uint64) {
	if s.reg.Load() == nil {
		return
	}
	s.events.Add(n)
}

// SetEvents publishes the stage's live event count; within one span
// callers only move it forward.  A nil span (the parent of a root
// Scope) is a no-op.
func (s *Span) SetEvents(n uint64) {
	if s == nil || s.reg.Load() == nil {
		return
	}
	s.events.Store(n)
}

// Fail records an error status on the span; the span must still be
// Ended.  The last Fail before End wins.  A nil error, a no-op span,
// or an already-ended span is ignored.
func (s *Span) Fail(err error) {
	if err == nil || s.reg.Load() == nil {
		return
	}
	msg := err.Error()
	s.errMsg.Store(&msg)
}

// ID returns the span's registry-unique identifier (0 for a no-op
// span).
func (s *Span) ID() uint64 { return s.id }

// End closes the span, appends its record to the registry, and returns
// it.  Ending a span twice (or a no-op span) returns a zero record.
func (s *Span) End() SpanRecord {
	r := s.reg.Swap(nil)
	if r == nil {
		return SpanRecord{}
	}
	wall := time.Since(s.start)
	events := s.events.Load()
	rec := SpanRecord{
		Name: s.name, ID: s.id, Parent: s.parent, Depth: s.depth,
		Start: s.start, Wall: wall, Events: events, Status: "ok",
	}
	if wall > 0 && events > 0 {
		rec.EventsPerSec = float64(events) / wall.Seconds()
	}
	if msg := s.errMsg.Load(); msg != nil {
		rec.Status = "error"
		rec.Err = *msg
	}
	r.mu.Lock()
	for i := len(r.active) - 1; i >= 0; i-- {
		if r.active[i] == s {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
	r.spans = append(r.spans, rec)
	r.mu.Unlock()
	return rec
}

// Spans returns the finished span records in end order.
func (r *Registry) Spans() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	return out
}
