package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"polyprof/internal/isa"
	"polyprof/internal/jobexec"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
	"polyprof/internal/workloads"
)

// DefaultMaxProgramBytes caps a user-submitted program body; well under
// jobstore.MaxWALRecord so the submit record always frames.
const DefaultMaxProgramBytes = 8 << 20

// recoverJSON keeps a panic in a store operation (e.g. an injected
// jobstore.wal.* fault in panic mode) from tearing the daemon down: the
// client gets a structured 500 and the daemon keeps serving.  If the
// response was already started, appending JSON would corrupt a 2xx
// body, so the connection is aborted instead — the client sees a broken
// transfer, never a bogus success.
func (s *Server) recoverJSON(w *statusWriter) {
	if r := recover(); r != nil {
		s.reg.Add("serve.panics", 1)
		if w.status != 0 {
			s.logf("polyprof: panic after response started: %v", r)
			panic(http.ErrAbortHandler)
		}
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"status": "panic",
			"error":  fmt.Sprint(r),
		})
	}
}

// handleJobs serves the /v1/jobs collection: POST submits, GET lists.
func (s *Server) handleJobs(rw http.ResponseWriter, req *http.Request) {
	w := tracked(rw)
	defer s.recoverJSON(w)
	if s.store == nil {
		http.Error(w, "durable jobs are disabled; restart the daemon with -data-dir", http.StatusServiceUnavailable)
		return
	}
	switch req.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, req)
	case http.MethodGet:
		s.handleJobList(w, req)
	default:
		w.Header().Set("Allow", "POST, GET")
		http.Error(w, "POST submits a job, GET lists jobs", http.StatusMethodNotAllowed)
	}
}

// handleJobSubmit accepts either ?workload=<name> or a request body in
// the internal/isa JSON encoding.  Submission is intentionally lax for
// program bodies: any non-empty body is acknowledged and decoded by the
// worker, so a hostile or malformed program ends as a `failed` job with
// a structured terminal error rather than a lost 400 — the submission
// record is the audit trail.
func (s *Server) handleJobSubmit(w http.ResponseWriter, req *http.Request) {
	job := &jobstore.Job{}
	if name := workloadParam(req); name != "" {
		if workloads.ByName(name) == nil {
			http.Error(w, fmt.Sprintf("unknown workload %q", name), http.StatusNotFound)
			return
		}
		job.Kind = jobstore.KindWorkload
		job.Workload = name
	} else {
		maxBytes := s.opts.MaxProgramBytes
		if maxBytes <= 0 {
			maxBytes = DefaultMaxProgramBytes
		}
		body, err := io.ReadAll(io.LimitReader(req.Body, maxBytes+1))
		if err != nil {
			http.Error(w, fmt.Sprintf("reading program body: %v", err), http.StatusBadRequest)
			return
		}
		if len(body) == 0 {
			http.Error(w, "submit with ?workload=<name> or a program body in the isa JSON encoding", http.StatusBadRequest)
			return
		}
		if int64(len(body)) > maxBytes {
			http.Error(w, fmt.Sprintf("program body exceeds the %d-byte limit", maxBytes), http.StatusRequestEntityTooLarge)
			return
		}
		job.Kind = jobstore.KindProgram
		job.Program = body
	}
	// Streaming epoch grid: ?epoch-events=N pins the job's epoch length.
	// It is part of the job spec — every attempt, local or leased,
	// pauses on the same boundaries, so a resumed attempt lands exactly
	// on the grid its checkpoint was cut on.  Absent, the daemon default
	// applies; an explicit 0 opts the job out of streaming.
	job.EpochEvents = s.opts.EpochEvents
	if v := req.URL.Query().Get("epoch-events"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("invalid epoch-events %q: %v", v, err), http.StatusBadRequest)
			return
		}
		job.EpochEvents = n
	}
	// ?optimize=1 closes the PGO loop for this job: after analysis the
	// attempt applies the suggested schedules, re-measures them under
	// the cycle/cache model, and the report gains an "optimization"
	// section with verified measured speedups.
	job.Optimize = req.URL.Query().Get("optimize") == "1"
	// Content-addressed dedup: identical submissions (canonical program
	// + budgets) resolve to the cached report in O(1) instead of
	// re-profiling — the pipeline is deterministic, so the cached report
	// is bit-for-bit what a re-run would produce.  ?nocache=1 forces a
	// fresh run (benchmarking, cache-busting tests).
	if key := s.cacheKey(job); key != "" && req.URL.Query().Get("nocache") == "" {
		if hit := s.store.LookupCache(key); hit != nil {
			s.reg.Add("jobs.cache_hits", 1)
			// The hit job's lifecycle trace records that it answered a
			// duplicate submission — without this, ?trace=1 on the cached
			// job cannot explain where the extra reads came from.
			s.store.Note(hit.ID, jobstore.TraceEvent{
				Event: jobstore.TraceCacheHit,
				Detail: fmt.Sprintf("answered duplicate submission (trace %s, key %s)",
					requestID(req.Context()), key[:12]),
			})
			w.Header().Set("Location", "/v1/jobs/"+hit.ID)
			writeJSON(w, http.StatusOK, map[string]any{
				"cached": true,
				"job":    hit.Summary(),
				"report": hit.Result.Report,
			})
			return
		}
		job.CacheKey = key
	}
	// The middleware's request ID becomes the job's trace ID (the
	// client's own X-Request-ID when it sent one), correlating intake,
	// WAL records, attempts, and flight bundles end to end.
	job.TraceID = requestID(req.Context())
	if err := s.store.Submit(job); err != nil {
		// Not acknowledged: the WAL write failed, so the client must not
		// believe the job is durable.
		http.Error(w, fmt.Sprintf("job not persisted: %v", err), http.StatusInternalServerError)
		return
	}
	s.pool.Wake(time.Time{})
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.Summary())
}

// cacheKey computes the job's content address: the canonical SHA-256
// of (kind, canonical program bytes, budget limits).  Program bodies
// are canonicalized through a decode/re-encode round trip so two
// submissions differing only in JSON whitespace or key order share a
// key; bodies that do not decode are not canonicalizable and return ""
// (never cached — they fail terminally anyway).  The daemon's budget
// limits are folded in because they shape the report (degradation).
func (s *Server) cacheKey(job *jobstore.Job) string {
	var prog []byte
	switch job.Kind {
	case jobstore.KindWorkload:
		prog = []byte("workload\x00" + job.Workload)
	case jobstore.KindProgram:
		p, err := isa.DecodeJSON(job.Program)
		if err != nil {
			return ""
		}
		canon, err := isa.EncodeJSON(p)
		if err != nil {
			return ""
		}
		prog = canon
	default:
		return ""
	}
	limits, err := json.Marshal(s.opts.Limits)
	if err != nil {
		return ""
	}
	h := sha256.New()
	h.Write([]byte(job.Kind))
	h.Write([]byte{0})
	h.Write(prog)
	h.Write([]byte{0})
	h.Write(limits)
	if job.EpochEvents > 0 {
		// The epoch grid shapes the report under degrading limits (a
		// streaming run folds-and-releases instead of degrading), so a
		// streamed job never answers a buffered submission or vice versa.
		// Buffered jobs keep the historical key.
		fmt.Fprintf(h, "\x00epoch=%d", job.EpochEvents)
	}
	if job.Optimize {
		// An optimized report embeds the transform engine's measurements;
		// it must never answer a plain profiling submission (or vice
		// versa).  Unoptimized jobs keep the historical key.
		fmt.Fprintf(h, "\x00optimize=1")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DefaultJobListLimit caps GET /v1/jobs when the client sends no
// ?limit= — a store holding millions of terminal jobs must not build an
// unbounded response.  MaxJobListLimit bounds an explicit ?limit=.
const (
	DefaultJobListLimit = 100
	MaxJobListLimit     = 1000
)

func (s *Server) handleJobList(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	var state jobstore.State
	if v := q.Get("state"); v != "" {
		st, err := jobstore.ParseState(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		state = st
	}
	limit, ok := queryInt(w, q, "limit", DefaultJobListLimit, 1)
	if !ok {
		return
	}
	limit = min(limit, MaxJobListLimit)
	offset, ok := queryInt(w, q, "offset", 0, 0)
	if !ok {
		return
	}
	page, total := s.store.ListPage(state, offset, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":   page,
		"total":  total,
		"offset": offset,
		"limit":  limit,
	})
}

// handleJobGet serves one job: GET /v1/jobs/{id} returns the full job
// including the persisted report once succeeded; DELETE /v1/jobs/{id}
// removes a terminal job (WAL-logged, survives restarts).  Deleting a
// queued or running job is a 409 — it would race the worker pool's
// claim; wait for a terminal state (or let the TTL sweeper collect it).
func (s *Server) handleJobGet(rw http.ResponseWriter, req *http.Request) {
	w := tracked(rw)
	defer s.recoverJSON(w)
	if s.store == nil {
		http.Error(w, "durable jobs are disabled; restart the daemon with -data-dir", http.StatusServiceUnavailable)
		return
	}
	id := strings.TrimPrefix(req.URL.Path, "/v1/jobs/")
	switch req.Method {
	case http.MethodGet:
		job := s.store.Get(id)
		if job == nil {
			http.Error(w, fmt.Sprintf("unknown job %q", id), http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("stream") == "1" {
			// Live progress: SSE of per-epoch provisional reports until
			// the job reaches a terminal state (see stream.go).
			s.streamJob(w, req, job)
			return
		}
		switch req.URL.Query().Get("trace") {
		case "1":
			// Full job including the persisted lifecycle trace — durable,
			// so it answers "what happened to this job" after a restart.
			writeJSON(w, http.StatusOK, job)
		case "chrome":
			// The lifecycle as a Chrome/Perfetto trace: queue wait,
			// attempts, and pipeline stages on their own tracks.
			data, err := obs.ChromeTrace(lifecycleSpans(job))
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Write(data)
			w.Write([]byte("\n"))
		default:
			// The trace can be hundreds of events; elide it from the plain
			// view (opt back in with ?trace=1).
			job.Trace = nil
			writeJSON(w, http.StatusOK, job)
		}
	case http.MethodDelete:
		switch err := s.store.Delete(id); {
		case err == nil:
			s.reg.Add("serve.jobs.deleted", 1)
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, jobstore.ErrUnknownJob):
			http.Error(w, err.Error(), http.StatusNotFound)
		case errors.Is(err, jobstore.ErrJobActive):
			http.Error(w, err.Error(), http.StatusConflict)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	default:
		w.Header().Set("Allow", "GET, DELETE")
		http.Error(w, "GET or DELETE /v1/jobs/<id>", http.StatusMethodNotAllowed)
	}
}

// runJob is the pool's Runner: one attempt of one job under a local
// slot's lease, executed by the shared attempt runner
// (internal/jobexec) under the daemon's budget limits with its own
// span tree and registry, like a synchronous /v1/profile request.  The
// returned Result is persisted on success; on error the pool classifies
// it (program materialization and deterministic budget exhaustion are
// terminal; wall-clock timeouts and shutdown cancellation retry).
func (s *Server) runJob(ctx context.Context, job *jobstore.Job, lease *jobstore.Lease) (*jobstore.Result, error) {
	start := time.Now()
	attempt := lease.Attempt
	name := fmt.Sprintf("job:%s#%d", job.Name(), attempt)

	// Live progress: the attempt's span registry is attached to the
	// store for the duration of the attempt, so GET /v1/jobs/{id}
	// reports the open stage span and its event counts.  Detach on
	// every exit path — terminal transitions also clear it, but a
	// retried attempt must not leave a stale registry behind.
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	// Every stage span start is persisted into the job's lifecycle
	// trace (unsynced WAL record — survives kill -9, cheap), which the
	// store mirrors into the flight ring, so a crash or a bundle can
	// name the stage.
	reg.OnStage(func(stage string) {
		s.store.Note(job.ID, jobstore.TraceEvent{Event: jobstore.TraceStage, Stage: stage, Attempt: attempt})
	})
	s.store.AttachProgress(job.ID, reg)
	defer s.store.DetachProgress(job.ID)

	// Slow-job watchdog: an attempt outliving the threshold freezes the
	// recorder while the job is still stuck — the bundle shows what it
	// is doing, not what it did.
	if th := s.opts.SlowJobThreshold; th > 0 {
		slow := func(detail string) {
			s.store.Recorder().Trigger("slow-job", flight.TriggerInfo{
				Trace: job.TraceID, Job: job.ID,
				Detail: detail,
				Extra:  s.store.Get(job.ID),
			})
		}
		watchdog := time.AfterFunc(th, func() {
			slow(fmt.Sprintf("attempt %d of job %s (%s) still running after %s",
				attempt, job.ID, job.Name(), th))
		})
		defer func() {
			// Stop() == true means the timer never fired; if the attempt
			// still overran the threshold the anomaly must not be lost to
			// the cancellation race, so trigger synchronously.  Dedupe in
			// the recorder keeps one bundle per (reason, job) either way.
			if watchdog.Stop() && time.Since(start) >= th {
				slow(fmt.Sprintf("attempt %d of job %s (%s) exceeded threshold %s (wall %s)",
					attempt, job.ID, job.Name(), th, time.Since(start).Round(time.Microsecond)))
			}
		}()
	}

	exOpts := jobexec.Options{
		Limits:   s.opts.Limits,
		Timeout:  s.opts.RequestTimeout,
		Registry: reg,
	}
	if job.EpochEvents > 0 {
		// Streaming attempt: checkpoints commit through the job store's
		// WAL under the slot's lease (so a SIGKILL'd attempt resumes from
		// the last committed epoch), provisionals fan out to ?stream=1
		// subscribers, and the resume decision is recorded in the job's
		// lifecycle trace.
		exOpts.Checkpoints = storeCheckpoints{store: s.store, lease: lease}
		exOpts.OnProvisional = func(p jobexec.Provisional) {
			s.reg.Add("serve.jobs.provisionals", 1)
			s.streams.publish(job.ID, p)
		}
		exOpts.OnResume = func(ev jobstore.TraceEvent) {
			if ev.Event == jobstore.TraceResume {
				s.reg.Add("serve.jobs.resumes", 1)
			}
			ev.Attempt = attempt
			s.store.Note(job.ID, ev)
		}
	}
	res, err := jobexec.Run(ctx, job, name, exOpts)
	if err == nil && job.EpochEvents > 0 {
		// The job is about to complete; drop its cached provisional (the
		// final report supersedes it, and terminal jobs answer ?stream=1
		// with a single done event).
		defer s.streams.clear(job.ID)
	}

	s.reg.Add("serve.jobs.runs", 1)
	if err != nil {
		s.reg.Add("serve.jobs.errors", 1)
	}
	s.reg.Observe("serve.job.wall_ns", uint64(res.WallNS))
	s.finish(outcome{kind: "job", name: name,
		trace: job.TraceID, job: job.ID, status: res.Status, err: err, wallNS: res.WallNS,
		budgets: res.Budget, reg: reg})
	s.logf("polyprof: job %s attempt=%d name=%s status=%s wall=%s ops=%d",
		job.ID, attempt, job.Name(), res.Status, time.Duration(res.WallNS), res.Ops)
	return res, err
}
