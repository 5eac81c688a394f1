package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
)

// handleFlightList serves GET /v1/flight: the on-disk incident bundles,
// newest first.  503 without a recorder (no -data-dir).
func (s *Server) handleFlightList(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "GET /v1/flight lists incident bundles", http.StatusMethodNotAllowed)
		return
	}
	dir := s.store.Recorder().Dir()
	if dir == "" {
		http.Error(w, "flight recorder is disabled; restart the daemon with -data-dir", http.StatusServiceUnavailable)
		return
	}
	infos, err := flight.List(dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"bundles": infos})
}

// handleFlightGet serves GET /v1/flight/{id} (one bundle, verbatim)
// and DELETE /v1/flight/{id} (prune an incident bundle that has been
// triaged — the recorder's retention gc only runs on new triggers, so
// deletion is the operator's lever).
func (s *Server) handleFlightGet(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodDelete {
		w.Header().Set("Allow", "GET, DELETE")
		http.Error(w, "GET /v1/flight/<id> returns one bundle; DELETE prunes it", http.StatusMethodNotAllowed)
		return
	}
	dir := s.store.Recorder().Dir()
	if dir == "" {
		http.Error(w, "flight recorder is disabled; restart the daemon with -data-dir", http.StatusServiceUnavailable)
		return
	}
	id := strings.TrimPrefix(req.URL.Path, "/v1/flight/")
	if req.Method == http.MethodDelete {
		if err := flight.Remove(dir, id); err != nil {
			http.Error(w, fmt.Sprintf("bundle %q: %v", id, err), http.StatusNotFound)
			return
		}
		s.reg.Add("serve.flight.deletes", 1)
		writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
		return
	}
	b, err := flight.ReadBundle(dir, id)
	if err != nil {
		http.Error(w, fmt.Sprintf("bundle %q: %v", id, err), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, b)
}

// outcome is one finished pipeline attempt: a synchronous /v1/profile
// request, a local pool slot's job attempt, or a remote worker's
// result post.
type outcome struct {
	kind, name string // ring event kind ("request", "job") and attempt name
	trace, job string // correlation IDs; job is "" for a request
	status     string
	wallNS     int64
	budgets    []string           // degrading budgets a degraded report tripped
	fail       *jobstore.JobError // the failure with its verdict; nil on success
	reg        *obs.Registry      // nil for a remote attempt, which ships none
}

// finish ends one attempt: its registry merges into the process one
// and, when the daemon has a recorder, its metric delta (the attempt's
// registry is exactly that), finished spans, anomaly decision and
// status enter the ring.  It is the one place a pipeline outcome
// becomes a trigger, so every such bundle carries the attempt's IDs and
// spans.  A job attempt that ran past SlowJobThreshold fires slow-job
// here too; the recorder's dedupe keeps it one bundle when the local
// watchdog already fired.
func (s *Server) finish(o outcome) {
	s.reg.Merge(o.reg)
	rec := s.store.Recorder()
	if rec == nil {
		return
	}
	if o.reg != nil {
		snap := o.reg.Snapshot()
		rec.LogSpans(o.trace, snap.Spans)
		detail := fmt.Sprintf("%d counters, %d gauges, %d histograms",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
		var top obs.NamedUint
		for _, c := range snap.Counters {
			if c.Value >= top.Value {
				top = c
			}
		}
		if top.Name != "" {
			detail += fmt.Sprintf("; top %s=%d", top.Name, top.Value)
		}
		rec.LogEvent(flight.Event{Kind: "metrics", Name: o.name, Trace: o.trace, Detail: detail})
	}
	evs, reason, info := anomaly(o)
	for _, ev := range evs {
		rec.LogEvent(ev)
	}
	if reason != "" {
		rec.Trigger(reason, info)
	}
	if th, wall := s.opts.SlowJobThreshold, time.Duration(o.wallNS); o.job != "" && th > 0 && wall >= th {
		rec.Trigger("slow-job", flight.TriggerInfo{
			Trace: o.trace, Job: o.job,
			Detail: fmt.Sprintf("%s exceeded threshold %s (wall %s)", o.name, th, wall.Round(time.Microsecond)),
			Extra:  s.store.Get(o.job),
		})
	}
	rec.LogEvent(flight.Event{Kind: o.kind, Name: o.name, Trace: o.trace,
		Detail: "status=" + o.status, WallNS: o.wallNS})
}

// anomaly reads what a finished attempt adds to the ring — degrade
// events, a budget event — and which trigger, if any, it fires (reason
// "" for none) off the failure's verdict, which the attempt runner
// decided (jobexec).  A failure without a verdict fires nothing.
func anomaly(o outcome) (evs []flight.Event, reason string, info flight.TriggerInfo) {
	for _, res := range o.budgets {
		evs = append(evs, flight.Event{Kind: "degrade", Name: res, Trace: o.trace,
			Detail: res + " budget exhausted; report degraded"})
	}
	info = flight.TriggerInfo{Trace: o.trace, Job: o.job}
	if o.fail == nil {
		return evs, "", info
	}
	v := o.fail.Verdict
	reason, info.Stage, info.Detail = v.Reason, v.Stage, v.Detail
	switch reason {
	case "optimize-verify-failed":
		info.Extra = map[string]string{"program": v.Program, "nest": v.Nest, "variant": v.Variant}
	case "budget-exhausted":
		if be := o.fail.Budget; be != nil {
			evs = append(evs, flight.Event{Kind: "budget", Name: be.Resource, Trace: o.trace, Detail: be.Error()})
		}
		info.Detail = o.name + ": " + v.Detail
		info.Extra = map[string]any{"status": o.status, "wall_ns": o.wallNS}
	}
	return evs, reason, info
}

// lifecycleSpans converts a job's persisted lifecycle trace into span
// records for the Chrome-trace export: queue wait, per-attempt leases,
// and pipeline stages each get a track, with instantaneous transitions
// (intake, retry, quarantine, the terminal event) as zero-width marks.
func lifecycleSpans(j *jobstore.Job) []obs.SpanRecord {
	var out []obs.SpanRecord
	var id uint64
	add := func(sp obs.SpanRecord) {
		id++
		sp.ID = id
		out = append(out, sp)
	}
	evs := j.Trace
	// endOf finds when the span opened by evs[i] closes: the next event
	// among the given kinds, else the last event of the trace.
	endOf := func(i int, kinds ...string) time.Time {
		for k := i + 1; k < len(evs); k++ {
			for _, kind := range kinds {
				if evs[k].Event == kind {
					return evs[k].At
				}
			}
		}
		return evs[len(evs)-1].At
	}
	width := func(start, end time.Time) time.Duration {
		if end.After(start) {
			return end.Sub(start)
		}
		return 0
	}
	for i, ev := range evs {
		switch ev.Event {
		case jobstore.TraceQueueWait:
			// The event is stamped when the wait ends and carries its
			// duration, so the span extends backward.
			add(obs.SpanRecord{
				Name: "queue-wait", Track: "job/queue",
				Start: ev.At.Add(-time.Duration(ev.WallNS)),
				Wall:  time.Duration(ev.WallNS), Status: "ok",
			})
		case jobstore.TraceLease:
			end := endOf(i, jobstore.TraceComplete, jobstore.TraceRetry,
				jobstore.TraceQuarantine, jobstore.TraceCrashRecovered, jobstore.TraceLease)
			add(obs.SpanRecord{
				Name: fmt.Sprintf("attempt-%d", ev.Attempt), Track: "job/attempts",
				Start: ev.At, Wall: width(ev.At, end), Status: "ok",
			})
		case jobstore.TraceStage:
			end := endOf(i, jobstore.TraceStage, jobstore.TraceComplete, jobstore.TraceRetry,
				jobstore.TraceQuarantine, jobstore.TraceCrashRecovered, jobstore.TraceLease)
			add(obs.SpanRecord{
				Name: ev.Stage, Track: "job/stages",
				Start: ev.At, Wall: width(ev.At, end), Status: "ok",
			})
		default:
			status := "ok"
			if ev.Event == jobstore.TraceQuarantine || ev.Event == jobstore.TraceCrashRecovered {
				status = "error"
			}
			add(obs.SpanRecord{
				Name: ev.Event, Track: "job/lifecycle",
				Start: ev.At, Status: status, Err: ev.Detail,
			})
		}
	}
	return out
}
