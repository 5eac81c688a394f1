// Package flight is the always-on flight recorder: a bounded in-memory
// ring of recent observability events (finished stage spans, requests,
// job lifecycle steps as the job store records them, budget and
// degradation outcomes, per-request metric deltas) that costs one
// atomic load per recording site while disabled, and on an anomaly trigger freezes the ring into
// a self-contained JSON bundle on disk — the last N seconds of process
// history, a goroutine and heap profile, the metrics snapshot, and
// build metadata — so a panic,
// budget blowout, quarantine, or slow job explains itself after the
// fact instead of leaving behind a terminal error string.
//
// Only the service layers (serve, jobstore, jobexec) record.  Pipeline
// packages return typed failures instead, and the daemon turns each
// request's or job attempt's outcome into at most one trigger that
// carries its trace and job IDs.
//
// The overhead discipline matches internal/obs and internal/faultinject:
// every LogEvent/Trigger site performs exactly one atomic load and
// returns when the recorder is disabled (the default; `polyprof serve`
// enables it when -data-dir is set).  When enabled, a recording site
// takes one short mutex hold to write a fixed-size slot in a
// preallocated ring — no allocation beyond the event's strings, no
// I/O.  Disk I/O happens only inside Trigger, which is off every hot
// path by definition (it fires on anomalies).
package flight

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"polyprof/internal/obs"
)

// Event is one ring-buffer entry.  Kind groups events for rendering
// ("span", "request", "job", "stream", "metrics", "budget", "degrade",
// "trigger"); Trace carries the request/job trace ID when the site
// knows it.
type Event struct {
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Name   string    `json:"name,omitempty"`
	Trace  string    `json:"trace,omitempty"`
	Detail string    `json:"detail,omitempty"`
	WallNS int64     `json:"wall_ns,omitempty"`
}

// TriggerInfo carries what the trigger site knows about the anomaly.
type TriggerInfo struct {
	// Trace is the request/job trace ID the anomaly belongs to, when
	// known.  Triggers with a trace (or job) ID are deduplicated per
	// (reason, trace, job) within a short window; triggers without one
	// are the caller's responsibility to rate-limit.
	Trace string
	// Job is the job ID, for job-lifecycle anomalies.
	Job string
	// Stage names the pipeline stage implicated, when known.
	Stage string
	// Detail is a one-line human-readable description.
	Detail string
	// Extra is marshaled verbatim into the bundle (e.g. the full job
	// record with its lifecycle trace).
	Extra any
}

// Options configures a recorder at Enable time.
type Options struct {
	// RingSize is the event-ring capacity (default 1024).
	RingSize int
	// MaxBundles caps bundles kept on disk (default 32); older bundles
	// are garbage-collected oldest-first.
	MaxBundles int
	// MaxBytes caps total bundle bytes on disk (default 64 MiB).
	MaxBytes int64
	// Registry is snapshotted into each bundle (default obs.Default).
	Registry *obs.Registry
	// Logf receives operational messages (bundle written, GC, write
	// errors).  Nil discards them.
	Logf func(format string, args ...any)
}

// dedupeWindow suppresses repeat triggers for the same (reason, trace,
// job): one anomaly should produce one bundle even when it is seen
// twice (a job's retried attempts, a watchdog racing an attempt's end).
const dedupeWindow = 15 * time.Second

// Recorder is one flight recorder.  The zero value is disabled and
// safe; use the package-level Default (enabled by the serving daemon)
// or NewRecorder in tests.
type Recorder struct {
	enabled atomic.Bool

	mu          sync.Mutex
	ring        []Event // preallocated to capacity once enabled
	next        int     // ring write index once len(ring) == cap
	total       uint64  // events ever recorded
	dir         string
	opts        Options
	seq         uint64
	lastTrigger map[string]time.Time
}

// Default is the process-wide recorder every recording site logs to.
// It stays disabled (one atomic load per site) until something —
// normally `polyprof serve -data-dir` — calls Enable.
var Default = NewRecorder()

// NewRecorder returns a disabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enable turns the recorder on, recording into a ring and writing
// trigger bundles under dir (created if absent).  Enabling an enabled
// recorder re-points it at dir.  Enabling Default also installs the
// obs span hook so every finished stage span lands in the ring.
func (r *Recorder) Enable(dir string, opts Options) error {
	if dir == "" {
		return fmt.Errorf("flight: empty bundle directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	if opts.RingSize <= 0 {
		opts.RingSize = 1024
	}
	if opts.MaxBundles <= 0 {
		opts.MaxBundles = 32
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 64 << 20
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	r.mu.Lock()
	r.dir = dir
	r.opts = opts
	if cap(r.ring) != opts.RingSize {
		r.ring = make([]Event, 0, opts.RingSize)
		r.next = 0
	}
	// Each Enable is a new recorder incarnation: stale dedupe state from
	// a previous enablement must not suppress the first anomalies of the
	// new one (trace IDs restart per daemon, so keys would collide).
	r.lastTrigger = make(map[string]time.Time)
	r.mu.Unlock()
	r.enabled.Store(true)
	if r == Default {
		obs.SetSpanHook(func(rec obs.SpanRecord) {
			r.LogEvent(Event{
				At:     rec.Start.Add(rec.Wall),
				Kind:   "span",
				Name:   rec.Name,
				Detail: spanDetail(rec),
				WallNS: int64(rec.Wall),
			})
		})
	}
	return nil
}

func spanDetail(rec obs.SpanRecord) string {
	if rec.Status == "error" {
		return "ERROR: " + rec.Err
	}
	if rec.Events > 0 {
		return fmt.Sprintf("%d events", rec.Events)
	}
	return ""
}

// Disable stops recording (mainly for tests; the daemon keeps its
// recorder for the process lifetime).  Disabling Default also
// uninstalls the obs span hook.
func (r *Recorder) Disable() {
	if r == nil {
		return
	}
	r.enabled.Store(false)
	if r == Default {
		obs.SetSpanHook(nil)
	}
}

// Enabled reports whether the recorder is recording.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// Dir returns the bundle directory ("" while disabled).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dir
}

// LogEvent records one event (zero At is stamped now); a single atomic
// load and return while disabled.
func (r *Recorder) LogEvent(ev Event) {
	if r == nil || !r.enabled.Load() {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	r.mu.Lock()
	if cap(r.ring) != 0 {
		if len(r.ring) < cap(r.ring) {
			r.ring = append(r.ring, ev)
		} else {
			r.ring[r.next] = ev
			r.next = (r.next + 1) % len(r.ring)
		}
		r.total++
	}
	r.mu.Unlock()
}

// events returns the ring contents oldest-first.  Caller holds r.mu.
func (r *Recorder) eventsLocked() []Event {
	out := make([]Event, 0, len(r.ring))
	if len(r.ring) == cap(r.ring) && cap(r.ring) > 0 {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring...)
	}
	return out
}

// Trigger freezes the ring and writes an incident bundle, returning
// the bundle ID.  While disabled it is a no-op returning "".  Repeat
// triggers for the same (reason, trace, job) within dedupeWindow are
// suppressed (returning "") so one anomaly yields one bundle.
func (r *Recorder) Trigger(reason string, info TriggerInfo) (string, error) {
	if r == nil || !r.enabled.Load() {
		return "", nil
	}
	now := time.Now()
	r.mu.Lock()
	if info.Trace != "" || info.Job != "" {
		key := reason + "|" + info.Trace + "|" + info.Job
		if last, ok := r.lastTrigger[key]; ok && now.Sub(last) < dedupeWindow {
			r.mu.Unlock()
			return "", nil
		}
		r.lastTrigger[key] = now
		// Bound the dedupe map: it only ever grows on novel keys.
		if len(r.lastTrigger) > 4096 {
			for k, t := range r.lastTrigger {
				if now.Sub(t) >= dedupeWindow {
					delete(r.lastTrigger, k)
				}
			}
		}
	}
	r.seq++
	seq := r.seq
	events := r.eventsLocked()
	dir := r.dir
	opts := r.opts
	r.mu.Unlock()

	b := buildBundle(reason, info, now, seq, events, opts.Registry)
	id, err := writeBundle(dir, b)
	if err != nil {
		if opts.Logf != nil {
			opts.Logf("flight: writing bundle for %s: %v", reason, err)
		}
		return "", err
	}
	if opts.Registry != nil {
		opts.Registry.Add("flight.bundles", 1)
	}
	if opts.Logf != nil {
		opts.Logf("flight: %s -> bundle %s (%s)", reason, id, info.Detail)
	}
	if err := gcBundles(dir, opts.MaxBundles, opts.MaxBytes, opts.Logf); err != nil && opts.Logf != nil {
		opts.Logf("flight: bundle gc: %v", err)
	}
	// The incident itself becomes ring history for later bundles.
	r.LogEvent(Event{At: now, Kind: "trigger", Name: reason, Trace: info.Trace, Detail: info.Detail})
	return id, nil
}

// List returns the recorder's on-disk bundles, newest first.
func (r *Recorder) List() ([]BundleInfo, error) { return List(r.Dir()) }

// Read loads one of the recorder's bundles by ID.
func (r *Recorder) Read(id string) (*Bundle, error) { return ReadBundle(r.Dir(), id) }

// Remove deletes one of the recorder's bundles by ID.
func (r *Recorder) Remove(id string) error { return Remove(r.Dir(), id) }

// LogEvent records an event on the Default recorder.
func LogEvent(ev Event) { Default.LogEvent(ev) }

// Trigger writes an incident bundle via the Default recorder.
func Trigger(reason string, info TriggerInfo) (string, error) { return Default.Trigger(reason, info) }

// Enabled reports whether the Default recorder is recording.
func Enabled() bool { return Default.Enabled() }
