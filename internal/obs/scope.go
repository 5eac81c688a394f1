package obs

// Scope is the span-context handle threaded through the pipeline: it
// names the registry a run records into and the parent span new stage
// spans nest under.  The zero Scope targets the process-wide Default
// registry with no parent, so instrumented structs can carry a Scope
// field and behave, unconfigured, exactly like the package-level
// shorthands.
//
// The serving daemon gives every profile request its own enabled
// registry and a request-root span, passes the resulting scope into
// core.Run, and merges the registry into the process one when the
// request completes — per-request isolation without any global state.
//
// A Scope is an immutable value; copy it freely.
type Scope struct {
	r    *Registry
	span *Span
}

// Scope returns the root scope of a registry (no parent span).
func (r *Registry) Scope() Scope { return Scope{r: r} }

// WithSpan returns a scope whose new spans nest under sp.
func (s Scope) WithSpan(sp *Span) Scope { return Scope{r: s.r, span: sp} }

// Registry resolves the scope's registry (Default for the zero Scope).
func (s Scope) Registry() *Registry {
	if s.r == nil {
		return Default
	}
	return s.r
}

// Enabled reports whether the scope's registry is collecting.
func (s Scope) Enabled() bool { return s.Registry().Enabled() }

// Span returns the scope's parent span (nil for a root scope).
func (s Scope) Span() *Span { return s.span }

// StartSpan opens a span nested under the scope's parent span; with no
// parent in the scope it nests under the registry's innermost active
// span, like Registry.StartSpan.
func (s Scope) StartSpan(name string) *Span { return s.StartSpanTotal(name, 0) }

// StartSpanTotal is StartSpan for a stage whose expected event count
// is known up front.  The total is fixed before the span is visible,
// so Registry.Stage never reports the stage without it.
func (s Scope) StartSpanTotal(name string, total uint64) *Span {
	r := s.Registry()
	if s.span != nil && s.span.id != 0 {
		return r.startSpan(name, total, s.span, true)
	}
	return r.startSpan(name, total, nil, false)
}

// Add increments the named counter when the scope's registry collects.
func (s Scope) Add(name string, n uint64) { s.Registry().Add(name, n) }

// SetGauge stores the named gauge value when the registry collects.
func (s Scope) SetGauge(name string, v int64) { s.Registry().SetGauge(name, v) }

// MaxGauge raises the named gauge when the registry collects.
func (s Scope) MaxGauge(name string, v int64) { s.Registry().MaxGauge(name, v) }

// Observe records a histogram sample when the registry collects.
func (s Scope) Observe(name string, v uint64) { s.Registry().Observe(name, v) }
