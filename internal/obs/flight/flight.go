// Package flight is the flight recorder: a bounded in-memory ring of
// recent observability events (an attempt's finished spans, job
// lifecycle steps as the job store records them, budget and
// degradation outcomes, per-attempt metric deltas) that, on an anomaly
// trigger, freezes into a self-contained JSON bundle on disk — the ring,
// a goroutine and heap profile, the metrics snapshot, and build
// metadata — so a panic, budget blowout, quarantine, or slow job
// explains itself after the fact instead of leaving behind a terminal
// error string.
//
// A recorder is a value, not a process global: each daemon's job store
// opens one under its data directory, and the serving layers record
// through that store's recorder.  Pipeline packages never record; they
// return typed failures, and the daemon turns each request's or job
// attempt's outcome into at most one trigger that carries its trace
// and job IDs.
//
// Outside a daemon with a data directory there is no recorder, and
// every *Recorder method is a nil check.  A recording site takes one
// short mutex hold to write a slot of the preallocated ring — no
// allocation beyond the event's strings, no I/O.  Disk I/O happens only
// inside Trigger, which is off every hot path by definition (it fires
// on anomalies).
package flight

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"polyprof/internal/obs"
)

// Event is one ring-buffer entry.  Kind groups events for rendering
// ("span", "request", "job", "metrics", "budget", "degrade",
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

// Options configures a recorder at Open time.
type Options struct {
	// RingSize is the event-ring capacity (default 1024).
	RingSize int
	// MaxBundles caps bundles kept on disk (default 32); older bundles
	// are garbage-collected oldest-first.
	MaxBundles int
	// MaxBytes caps total bundle bytes on disk (default 64 MiB); the
	// newest bundle is kept even when it alone exceeds the cap.
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

// Recorder is one flight recorder, made by Open.  A nil *Recorder is
// valid and records nothing, so code that may run without one (a
// daemon without a data directory) calls its methods unconditionally.
type Recorder struct {
	dir  string // fixed at Open
	opts Options

	mu          sync.Mutex
	ring        []Event // preallocated to opts.RingSize
	next        int     // ring write index once len(ring) == cap
	seq         uint64
	lastTrigger map[string]time.Time
}

// Default is an inert recorder that nothing records to.
//
// Deprecated: every daemon owns its recorder (jobstore.Store.Recorder).
// Default remains only for bench/daemon.go's Disable call and goes
// with it.
var Default = &Recorder{}

// Open returns a recorder with an empty ring that writes trigger
// bundles under dir (created if absent).
func Open(dir string, opts Options) (*Recorder, error) {
	if dir == "" {
		return nil, fmt.Errorf("flight: empty bundle directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
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
	return &Recorder{
		dir:         dir,
		opts:        opts,
		ring:        make([]Event, 0, opts.RingSize),
		lastTrigger: make(map[string]time.Time),
	}, nil
}

// Disable does nothing.
//
// Deprecated: a recorder records until its owner drops it; Disable
// remains only for bench/daemon.go and goes with Default.
func (r *Recorder) Disable() {}

// Dir returns the bundle directory ("" for a nil or zero recorder).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// LogEvent records one event (zero At is stamped now).
func (r *Recorder) LogEvent(ev Event) {
	if r == nil {
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
	}
	r.mu.Unlock()
}

// LogSpans records finished spans of the attempt with the given trace
// ID, each as a "span" event stamped at the span's end.
func (r *Recorder) LogSpans(trace string, spans []obs.SpanRecord) {
	for _, rec := range spans {
		detail := ""
		if rec.Status == "error" {
			detail = "ERROR: " + rec.Err
		} else if rec.Events > 0 {
			detail = fmt.Sprintf("%d events", rec.Events)
		}
		r.LogEvent(Event{At: rec.Start.Add(rec.Wall), Kind: "span", Name: rec.Name,
			Trace: trace, Detail: detail, WallNS: int64(rec.Wall)})
	}
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
// the bundle ID.  A nil (or zero) recorder returns "".  Repeat
// triggers for the same (reason, trace, job) within dedupeWindow are
// suppressed (returning "") so one anomaly yields one bundle.
func (r *Recorder) Trigger(reason string, info TriggerInfo) (string, error) {
	if r == nil || r.dir == "" {
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
	r.mu.Unlock()
	dir, opts := r.dir, r.opts
	// Spans enter the ring when their attempt finishes but are stamped
	// at their own end, so insertion order is not time order; bundles
	// keep the frozen ring oldest-first by At's wall clock, the reading
	// a bundle carries.
	sort.SliceStable(events, func(i, j int) bool { return events[i].At.UnixNano() < events[j].At.UnixNano() })

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
	removed, err := GC(dir, opts.MaxBundles, opts.MaxBytes)
	if opts.Logf != nil {
		for _, old := range removed {
			opts.Logf("flight: gc removed bundle %s", old)
		}
		if err != nil {
			opts.Logf("flight: bundle gc: %v", err)
		}
	}
	// The incident itself becomes ring history for later bundles.
	r.LogEvent(Event{At: now, Kind: "trigger", Name: reason, Trace: info.Trace, Detail: info.Detail})
	return id, nil
}
