// Package obs is polyprof's dependency-free observability layer: a
// metrics registry (counters, gauges, histograms with fixed log2
// buckets) and a stage-span tracer that records wall time, events
// processed, and events/sec for every pipeline stage.  It plays, for
// this reproduction, the role the paper's hand-maintained cost
// accounting plays for Experiment I: every profiling run can report
// where its own time went.
//
// Collection is disabled by default and enabled explicitly (the
// `polyprof overhead` subcommand, the -metrics / -http CLI flags, and
// the tests).  While disabled, every instrumentation entry point
// reduces to a single atomic load, so the pipeline's hot paths pay no
// measurable cost; instrumentation call sites are additionally kept at
// stage granularity (end of a VM run, folder finish, dependence
// analysis), never per dynamic instruction.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NumBuckets is the fixed bucket count of a Histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. bucket 0 holds zeros and
// bucket i >= 1 holds the range [2^(i-1), 2^i - 1].
const NumBuckets = 65

// Histogram counts observations into fixed log2 buckets and tracks the
// exact observed min/max so quantile estimates can be clamped to the
// true range (a log2 bucket midpoint overestimates badly when every
// sample lands in one bucket).
//
// notMin stores the bitwise complement of the minimum: its zero value
// (0 == ^MaxUint64) means "no sample below MaxUint64 yet", so a
// zero-valued Histogram needs no constructor and min updates reduce to
// the same lock-free CAS-max loop as max.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	notMin  atomic.Uint64
	max     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// BucketIndex returns the bucket an observation falls into.
func BucketIndex(v uint64) int { return bits.Len64(v) }

// BucketBounds returns the inclusive value range [lo, hi] of bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 0
	}
	lo = uint64(1) << (i - 1)
	if i >= 64 {
		return lo, ^uint64(0)
	}
	return lo, (uint64(1) << i) - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	casMax(&h.notMin, ^v)
	casMax(&h.max, v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Min returns the smallest observed sample (0 before any Observe —
// callers should gate on Count).
func (h *Histogram) Min() uint64 {
	if h.count.Load() == 0 {
		return 0
	}
	return ^h.notMin.Load()
}

// Max returns the largest observed sample (0 before any Observe).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Bucket returns the sample count of bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= NumBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// Registry holds named metrics and finished stage spans.  All methods
// are safe for concurrent use.
type Registry struct {
	enabled    atomic.Bool
	nextSpanID atomic.Uint64
	onStage    atomic.Pointer[func(stage string)]

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanRecord
	active   []*Span
}

// NewRegistry returns an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry the pipeline instruments.
var Default = NewRegistry()

// SetEnabled switches metric collection on or off.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is collecting.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Reset drops every metric and span, keeping the enabled state.  Span
// IDs restart from 1 so successive runs on one registry trace
// identically.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
	r.spans = nil
	r.active = nil
	r.nextSpanID.Store(0)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Add increments the named counter when collection is enabled.
func (r *Registry) Add(name string, n uint64) {
	if !r.enabled.Load() {
		return
	}
	r.Counter(name).Add(n)
}

// SetGauge stores the named gauge value when collection is enabled.
func (r *Registry) SetGauge(name string, v int64) {
	if !r.enabled.Load() {
		return
	}
	r.Gauge(name).Set(v)
}

// MaxGauge raises the named gauge when collection is enabled.
func (r *Registry) MaxGauge(name string, v int64) {
	if !r.enabled.Load() {
		return
	}
	r.Gauge(name).Max(v)
}

// Observe records a histogram sample when collection is enabled.
func (r *Registry) Observe(name string, v uint64) {
	if !r.enabled.Load() {
		return
	}
	r.Histogram(name).Observe(v)
}

// Merge folds another registry's metrics into r: counters add, gauges
// merge by maximum (the gauges in this codebase record peaks),
// histograms merge bucket-wise.  Spans are not merged — a span tree
// belongs to the run that produced it (the serving daemon keeps them
// in its per-request ring instead of the process registry).  Merge is
// a no-op while r is disabled.
func (r *Registry) Merge(src *Registry) {
	if src == nil || src == r || !r.enabled.Load() {
		return
	}
	type histCopy struct {
		count, sum uint64
		min, max   uint64
		buckets    [NumBuckets]uint64
	}
	src.mu.Lock()
	counters := make(map[string]uint64, len(src.counters))
	for n, c := range src.counters {
		counters[n] = c.Value()
	}
	gauges := make(map[string]int64, len(src.gauges))
	for n, g := range src.gauges {
		gauges[n] = g.Value()
	}
	hists := make(map[string]*histCopy, len(src.hists))
	for n, h := range src.hists {
		hc := &histCopy{count: h.Count(), sum: h.Sum(), min: h.Min(), max: h.Max()}
		for i := 0; i < NumBuckets; i++ {
			hc.buckets[i] = h.Bucket(i)
		}
		hists[n] = hc
	}
	src.mu.Unlock()

	for n, v := range counters {
		if v > 0 {
			r.Counter(n).Add(v)
		}
	}
	for n, v := range gauges {
		r.Gauge(n).Max(v)
	}
	for n, hc := range hists {
		h := r.Histogram(n)
		h.count.Add(hc.count)
		h.sum.Add(hc.sum)
		if hc.count > 0 {
			casMax(&h.notMin, ^hc.min)
			casMax(&h.max, hc.max)
		}
		for i, c := range hc.buckets {
			if c > 0 {
				h.buckets[i].Add(c)
			}
		}
	}
}

// sortedNames returns the keys of a metric map in stable order.
func sortedNames[M any](m map[string]M) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Package-level shorthands operating on Default.

// Enable switches the default registry on.
func Enable() { Default.SetEnabled(true) }

// Disable switches the default registry off.
func Disable() { Default.SetEnabled(false) }

// Enabled reports whether the default registry is collecting.
func Enabled() bool { return Default.Enabled() }

// Reset clears the default registry.
func Reset() { Default.Reset() }

// Add increments a counter on the default registry.
func Add(name string, n uint64) { Default.Add(name, n) }

// SetGauge sets a gauge on the default registry.
func SetGauge(name string, v int64) { Default.SetGauge(name, v) }

// MaxGauge raises a gauge on the default registry.
func MaxGauge(name string, v int64) { Default.MaxGauge(name, v) }

// Observe records a histogram sample on the default registry.
func Observe(name string, v uint64) { Default.Observe(name, v) }

// StartSpan opens a stage span on the default registry.
func StartSpan(name string) *Span { return Default.StartSpan(name) }
