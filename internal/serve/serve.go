// Package serve is polyprof's profiling-as-a-service daemon: an HTTP
// server that runs the full pipeline per request with per-request span
// trees and metrics, keeps a ring of recent request summaries, and
// exposes the process registry in both Prometheus and JSON form.
//
// Endpoints:
//
//	POST /v1/profile?workload=<name>   run the pipeline, return the report
//	POST /v1/jobs                      submit a durable async job (workload
//	                                   name or isa-JSON program body);
//	                                   ?epoch-events=N streams it on that
//	                                   epoch grid (checkpointed, resumable)
//	GET  /v1/jobs?state=<s>            list jobs, optionally by state, with
//	                                   ?limit/?offset pagination
//	GET  /v1/jobs/{id}                 one job, with its persisted report
//	GET  /v1/jobs/{id}?stream=1        live SSE: per-epoch provisional
//	                                   reports, then the terminal result
//	DELETE /v1/jobs/{id}               delete a terminal job (409 while
//	                                   queued/running); WAL-logged
//	POST /v1/leases                    claim a ready job (remote worker);
//	                                   the grant carries the job's latest
//	                                   committed epoch checkpoint
//	PUT  /v1/leases/{id}               heartbeat a lease (fencing token)
//	POST /v1/leases/{id}/checkpoint    commit a streaming epoch checkpoint
//	                                   under the fencing token
//	POST /v1/leases/{id}/result        report a leased attempt's outcome
//	GET  /v1/flight                    list incident bundles
//	GET  /v1/flight/{id}               one incident bundle, verbatim
//	DELETE /v1/flight/{id}             prune a triaged incident bundle
//	GET  /v1/requests                  recent request summaries (persisted
//	                                   across restarts when -data-dir set)
//	GET  /v1/workloads                 names the daemon can profile
//	GET  /healthz                      liveness + in-flight gauge
//	GET  /readyz                       readiness (503 until WAL replay +
//	                                   pool/reclaimer startup finish)
//	GET  /metrics                      process registry (Prometheus/JSON)
//	GET  /debug/vars                   process registry (always JSON)
//	GET  /debug/pprof/                 net/http/pprof
//
// With a data directory configured (-data-dir), the daemon also runs a
// durable job subsystem (internal/jobstore): submitted jobs are
// WAL-persisted before they are acknowledged, executed by a bounded
// worker pool with retry/backoff/quarantine, and survive kill -9 —
// completed results and request history are served from disk after a
// restart.
//
// Every profile request is one unpersisted workload job run by the
// shared attempt runner (internal/jobexec) against its own enabled
// obs.Registry with a "request:<workload>" root span; the pipeline
// stages nest under the root.  On completion the request registry's
// counters, gauges, and histograms merge into the process registry,
// while the span tree stays with the request summary — concurrent
// requests never bleed into each other.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polyprof/internal/budget"
	"polyprof/internal/jobexec"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
	"polyprof/internal/workloads"
)

// DefaultRequestTimeout bounds a profile request's wall clock when
// Options.RequestTimeout is zero.
const DefaultRequestTimeout = 60 * time.Second

// StatusClientClosedRequest is the (nginx-convention) status reported
// when the client disconnected before the pipeline finished.
const StatusClientClosedRequest = 499

// Options tunes the daemon.
type Options struct {
	// MaxInFlight bounds concurrently running profile requests; excess
	// requests are rejected with 429 + Retry-After.  Default 2 — the
	// pipeline is CPU-bound, so admission control beats queueing.
	MaxInFlight int
	// RingSize is how many finished request summaries /v1/requests
	// keeps (default 64): in the volatile ring, or in the job store's
	// persisted history when DataDir is set.
	RingSize int
	// Registry is the process-wide registry request metrics merge into
	// and /metrics serves (default obs.Default, which the daemon
	// enables).
	Registry *obs.Registry
	// Logf receives one line per request (nil to disable).
	Logf func(format string, args ...any)
	// RequestTimeout bounds each profile request's wall clock (default
	// DefaultRequestTimeout; negative disables).  The request budget
	// also cancels when the client disconnects.
	RequestTimeout time.Duration
	// Limits are the per-request resource budgets (zero fields
	// unlimited).  Hard limits abort the request with a budget status;
	// degrading limits (shadow bytes, DDG edges) coarsen the DDG and
	// mark the response degraded.
	Limits budget.Limits
	// DataDir enables the durable job subsystem and the flight
	// recorder: jobs and request history are WAL-persisted here and
	// survive restarts, and incident bundles land under
	// jobstore.FlightDir.  Empty disables /v1/jobs and /v1/flight (503)
	// and keeps history in the volatile ring.
	DataDir string
	// Workers bounds concurrent job executions (default 2).
	Workers int
	// MaxAttempts quarantines a job after this many started attempts
	// (default 3).
	MaxAttempts int
	// MaxProgramBytes caps a user-submitted program body (default
	// DefaultMaxProgramBytes).
	MaxProgramBytes int64
	// JobTTL garbage-collects terminal jobs this long after they
	// finish (WAL-logged deletions; zero keeps jobs forever).
	JobTTL time.Duration
	// EpochEvents streams every job by default: attempts pause each
	// EpochEvents dynamic instructions to render a provisional report
	// (GET /v1/jobs/{id}?stream=1) and commit a WAL-fsynced resume
	// checkpoint.  Per-job ?epoch-events=N overrides (an explicit 0
	// opts out); 0 here leaves jobs buffered unless they opt in.
	// Reports are byte-identical either way.
	EpochEvents uint64
	// SlowJobThreshold arms a per-attempt watchdog: a local job attempt
	// still running after this long freezes the flight recorder into a
	// "slow-job" bundle, and so does any job attempt, local or remote,
	// that ends past it (once per job within the dedupe window).  Zero
	// defaults to half the request timeout; negative disables.
	SlowJobThreshold time.Duration
	// LeaseTTL is the default lease duration granted to remote workers
	// (clamped to [jobstore.MinLeaseTTL, jobstore.MaxLeaseTTL]; default
	// 30s).  Workers may request their own TTL per claim, also clamped.
	LeaseTTL time.Duration
	// DeferOpen makes New return before the job store replays its WAL;
	// the caller must invoke Open.  Until then the daemon answers
	// /healthz, /readyz (503), and /metrics but rejects work — the
	// load-balancer contract for a still-recovering coordinator.
	DeferOpen bool
}

// Server is the daemon state.
type Server struct {
	opts   Options
	reg    *obs.Registry
	sem    chan struct{}
	reqSeq atomic.Uint64

	// ready flips once Open has finished WAL replay and started the
	// pool/reclaimer.  It is the happens-before barrier for store/pool:
	// handlers must observe ready before touching either (the
	// middleware's not-ready 503 enforces this for every route that can
	// reach them).
	ready atomic.Bool

	// store/pool are non-nil when Options.DataDir is set (after Open).
	store *jobstore.Store
	pool  *jobstore.Pool

	// streams fans streaming jobs' per-epoch provisional reports out to
	// GET /v1/jobs/{id}?stream=1 subscribers.
	streams *streamHub

	mu   sync.Mutex
	ring []RequestSummary
}

// New creates a daemon.  With Options.DataDir set it opens (replaying)
// the durable job store and starts the worker pool, re-enqueueing jobs
// that were queued or running when the previous process died; with
// Options.DeferOpen it returns immediately and the caller runs Open —
// typically after the listener is up, so /readyz can answer 503 while
// replay proceeds.
func New(opts Options) (*Server, error) {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 2
	}
	if opts.RingSize <= 0 {
		opts.RingSize = 64
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.SlowJobThreshold == 0 {
		if opts.RequestTimeout > 0 {
			opts.SlowJobThreshold = opts.RequestTimeout / 2
		} else {
			opts.SlowJobThreshold = DefaultRequestTimeout / 2
		}
	}
	opts.Registry.SetEnabled(true)
	s := &Server{
		opts:    opts,
		reg:     opts.Registry,
		sem:     make(chan struct{}, opts.MaxInFlight),
		streams: newStreamHub(),
	}
	if opts.DeferOpen {
		return s, nil
	}
	if err := s.Open(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open replays the WAL, starts the worker pool and lease reclaimer,
// and marks the daemon ready.  Idempotent; New calls it unless
// Options.DeferOpen.
func (s *Server) Open() error {
	if s.ready.Load() {
		return nil
	}
	if s.opts.DataDir != "" {
		// The store opens the daemon's flight recorder under the data
		// dir; the daemon records through s.store.Recorder().
		store, recovered, err := jobstore.Open(s.opts.DataDir, jobstore.Options{
			MaxHistory: s.opts.RingSize,
			Registry:   s.opts.Registry,
			Logf:       s.opts.Logf,
		})
		if err != nil {
			return fmt.Errorf("serve: opening job store: %w", err)
		}
		s.store = store
		s.pool = jobstore.NewPool(store, s.runJob, jobstore.PoolOptions{
			Workers:         s.opts.Workers,
			MaxAttempts:     s.opts.MaxAttempts,
			TTL:             s.opts.JobTTL,
			DefaultLeaseTTL: s.opts.LeaseTTL,
			Registry:        s.opts.Registry,
			Logf:            s.opts.Logf,
		})
		s.pool.Start()
		if n := len(recovered); n > 0 {
			s.logf("polyprof: job store recovered %d pending job(s) from %s", n, s.opts.DataDir)
		}
	}
	s.ready.Store(true)
	return nil
}

// Close stops the worker pool (canceling in-flight attempts) and
// compacts + closes the job store.  Safe on a store-less server.
func (s *Server) Close() error {
	if s.pool != nil {
		s.pool.Stop()
	}
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ProfileResponse is the body of a /v1/profile call.  Status is one of
// "ok", "timeout" (408), "canceled" (499), "budget"/"error" (422), or
// "panic" (500).
type ProfileResponse struct {
	RequestID string `json:"request_id"`
	Workload  string `json:"workload"`
	Status    string `json:"status"`
	Error     string `json:"error,omitempty"`
	// SpanID is the id of the request's root span within Spans, so a
	// 500 can be correlated with its trace.
	SpanID uint64 `json:"span_id,omitempty"`
	// Degraded is true when a resource budget coarsened the DDG;
	// Budget names the tripped budgets.  The report is still sound —
	// it may only contain MORE dependences than a full run.
	Degraded bool            `json:"degraded,omitempty"`
	Budget   []string        `json:"budget,omitempty"`
	WallNS   int64           `json:"wall_ns"`
	Ops      uint64          `json:"ops,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
	// Spans is the request's span tree: the "request:<name>" root plus
	// every pipeline stage, linked by id/parent.
	Spans []obs.SpanRecord `json:"spans"`
	// Metrics is the request-scoped registry snapshot (only this
	// request's counters; spans excluded — see Spans).
	Metrics *MetricsBody `json:"metrics,omitempty"`
}

// MetricsBody is the request-scoped metric section of a response.
type MetricsBody struct {
	Counters   []obs.NamedUint         `json:"counters,omitempty"`
	Gauges     []obs.NamedInt          `json:"gauges,omitempty"`
	Histograms []obs.HistogramSnapshot `json:"histograms,omitempty"`
}

// RequestSummary is one entry of the /v1/requests ring.
type RequestSummary struct {
	ID       string           `json:"id"`
	Workload string           `json:"workload"`
	Status   string           `json:"status"`
	Error    string           `json:"error,omitempty"`
	Degraded bool             `json:"degraded,omitempty"`
	Start    time.Time        `json:"start"`
	WallNS   int64            `json:"wall_ns"`
	Ops      uint64           `json:"ops,omitempty"`
	Spans    []obs.SpanRecord `json:"spans"`
}

// Handler returns the daemon's HTTP mux, wrapped in the request-ID
// middleware: every response (including 4xx/5xx error paths) carries an
// X-Request-ID header, and 5xx responses freeze the flight recorder.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/profile", s.handleProfile)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJobGet)
	mux.HandleFunc("/v1/leases", s.handleLeases)
	mux.HandleFunc("/v1/leases/", s.handleLease)
	mux.HandleFunc("/v1/flight", s.handleFlightList)
	mux.HandleFunc("/v1/flight/", s.handleFlightGet)
	mux.HandleFunc("/v1/requests", s.handleRequests)
	mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/vars", s.reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.middleware(mux)
}

// ctxKey keys middleware values on the request context.
type ctxKey int

const requestIDKey ctxKey = iota

// requestID returns the middleware-assigned request/trace ID ("" when
// the handler runs without the middleware, e.g. unit tests hitting a
// handler directly).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// statusWriter is the daemon's one response wrapper.  It records the
// status a handler wrote, so the middleware can observe 5xx outcomes
// after the fact and recoverJSON knows whether the response started
// (status != 0), and it forwards Flush, so server-sent events leave
// the process as they are written.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// tracked returns the middleware's wrapper of w, or wraps w when a
// handler runs without the middleware (unit tests).
func tracked(w http.ResponseWriter) *statusWriter {
	if sw, ok := w.(*statusWriter); ok {
		return sw
	}
	return &statusWriter{ResponseWriter: w}
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// maxInboundRequestID bounds the client-chosen trace ID so a hostile
// header cannot bloat logs, traces, and flight bundles.
const maxInboundRequestID = 128

// middleware assigns every request its trace ID — the inbound
// X-Request-ID when the client sent a plausible one, a fresh "req-N"
// otherwise — echoes it on the response (error paths included, since
// the header is set before the handler runs), and turns any 5xx into a
// flight-recorder trigger carrying that ID.  It writes no ring event of
// its own: the job store records job lifecycle steps and attempts log
// their outcomes, so liveness probes never crowd the ring.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get("X-Request-ID")
		if id == "" || len(id) > maxInboundRequestID {
			id = fmt.Sprintf("req-%d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		// Not ready (WAL replay / pool startup still running): only
		// liveness, readiness, and metrics answer.  The ready check also
		// orders this request after Open's store/pool writes, so no
		// handler ever observes a half-initialized daemon.
		ready := s.ready.Load()
		if !ready {
			switch {
			case req.URL.Path == "/healthz" || req.URL.Path == "/readyz" ||
				req.URL.Path == "/metrics" || strings.HasPrefix(req.URL.Path, "/debug/"):
			default:
				w.Header().Set("Retry-After", "1")
				http.Error(w, "starting: job store replay in progress; poll /readyz", http.StatusServiceUnavailable)
				return
			}
		}
		sw := &statusWriter{ResponseWriter: w}
		req = req.WithContext(context.WithValue(req.Context(), requestIDKey, id))
		// The deferred tail still observes the status when a handler
		// panic unwinds through here (recoverJSON may have aborted the
		// connection; sw.status is 0 then and no trigger fires).  A
		// request let through while starting (/readyz's 503) fires no
		// trigger and must not read s.store, which Open may be writing.
		defer func() {
			if sw.status >= 500 && ready {
				s.store.Recorder().Trigger("serve-5xx", flight.TriggerInfo{
					Trace:  id,
					Detail: fmt.Sprintf("%s %s -> %d", req.Method, req.URL.Path, sw.status),
				})
			}
		}()
		next.ServeHTTP(sw, req)
	})
}

func (s *Server) handleProfile(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost && req.Method != http.MethodGet {
		// RFC 9110 §15.5.6: a 405 must name the allowed methods.
		w.Header().Set("Allow", "POST, GET")
		http.Error(w, "POST /v1/profile?workload=<name>", http.StatusMethodNotAllowed)
		return
	}
	name := workloadParam(req)
	if name == "" {
		http.Error(w, "missing workload parameter", http.StatusBadRequest)
		return
	}
	spec := workloads.ByName(name)
	if spec == nil {
		http.Error(w, fmt.Sprintf("unknown workload %q", name), http.StatusNotFound)
		return
	}

	// Admission control: non-blocking slot grab; a full daemon sheds
	// load instead of queueing CPU-bound work.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.reg.Add("serve.rejected", 1)
		// Jittered Retry-After so a burst of shed clients does not
		// return in lockstep and collide again.
		w.Header().Set("Retry-After", strconv.Itoa(1+rand.Intn(3)))
		http.Error(w, "too many profile requests in flight", http.StatusTooManyRequests)
		return
	}

	// The request context cancels the pipeline when the client
	// disconnects; the attempt's timeout turns a runaway workload into a
	// 408 instead of a stuck slot.
	ctx := req.Context()

	// The middleware assigned the trace ID; fall back to a fresh one
	// when the handler is exercised directly (unit tests).
	id := requestID(ctx)
	if id == "" {
		id = fmt.Sprintf("req-%d", s.reqSeq.Add(1))
	}
	wantTrace := req.URL.Query().Get("trace") == "1"
	resp := s.runProfile(ctx, id, *spec, req.URL.Query().Get("metrics") == "1")

	w.Header().Set("X-Request-ID", id)
	if wantTrace {
		// Chrome trace of this request's span tree instead of the JSON
		// report — curl straight into Perfetto.
		data, err := obs.ChromeTrace(resp.Spans)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(data)
		w.Write([]byte("\n"))
		return
	}
	writeJSON(w, httpStatus(resp.Status), resp)
}

// workloadParam returns the ?workload= parameter.  Workload names
// contain '+' (b+tree), which form decoding turns into a space, so the
// value is path-unescaped instead: workload=b+tree and workload=b%2Btree
// both name b+tree.
func workloadParam(req *http.Request) string {
	for _, kv := range strings.Split(req.URL.RawQuery, "&") {
		if k, v, _ := strings.Cut(kv, "="); k == "workload" {
			if name, err := url.PathUnescape(v); err == nil {
				return name
			}
			return v
		}
	}
	return ""
}

// queryInt reads the integer query parameter name: def when it is
// absent, else a value of at least lo.  Anything else is answered with
// a 400 naming the parameter, and ok is false.
func queryInt(w http.ResponseWriter, q url.Values, name string, def, lo int) (n int, ok bool) {
	v := q.Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < lo {
		http.Error(w, fmt.Sprintf("invalid %s %q: want an integer >= %d", name, v, lo), http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// httpStatus maps a profile status to its HTTP code.
func httpStatus(status string) int {
	switch status {
	case "ok":
		return http.StatusOK
	case "timeout":
		return http.StatusRequestTimeout
	case "canceled":
		return StatusClientClosedRequest
	case "panic":
		return http.StatusInternalServerError
	default: // "budget", "error"
		return http.StatusUnprocessableEntity
	}
}

// runProfile runs one request as an unpersisted workload job through
// the shared attempt runner under its own registry, and returns the
// response; the shared finish merges the request metrics and makes its
// anomaly decision.
func (s *Server) runProfile(ctx context.Context, id string, spec workloads.Spec, wantMetrics bool) *ProfileResponse {
	reqReg := obs.NewRegistry()
	reqReg.SetEnabled(true)
	start := time.Now()
	s.store.Recorder().LogEvent(flight.Event{Kind: "request", Name: "profile:" + spec.Name, Trace: id, Detail: "start"})
	job := &jobstore.Job{Kind: jobstore.KindWorkload, Workload: spec.Name, TraceID: id}
	res, err := jobexec.Run(ctx, job, "request:"+spec.Name, jobexec.Options{
		Limits:   s.opts.Limits,
		Timeout:  s.opts.RequestTimeout,
		Registry: reqReg,
	})
	resp := &ProfileResponse{
		RequestID: id, Workload: spec.Name, Status: res.Status, SpanID: res.SpanID,
		Degraded: res.Degraded, Budget: res.Budget, WallNS: res.WallNS, Ops: res.Ops,
		Report: res.Report, Spans: reqReg.Spans(),
	}
	if err != nil {
		resp.Error = err.Error()
	}
	if wantMetrics {
		snap := reqReg.Snapshot()
		resp.Metrics = &MetricsBody{
			Counters: snap.Counters, Gauges: snap.Gauges, Histograms: snap.Histograms,
		}
	}

	// Record the daemon's own serving metrics, then fold the request
	// registry into the process one (spans stay with the request).
	s.reg.Add("serve.requests", 1)
	if resp.Status != "ok" {
		s.reg.Add("serve.requests.errors", 1)
	}
	switch resp.Status {
	case "timeout":
		s.reg.Add("serve.requests.timeouts", 1)
	case "canceled":
		s.reg.Add("serve.requests.canceled", 1)
	case "panic":
		s.reg.Add("serve.panics", 1)
	}
	if resp.Degraded {
		s.reg.Add("serve.requests.degraded", 1)
	}
	s.reg.Observe("serve.request.wall_ns", uint64(resp.WallNS))
	s.finish(outcome{kind: "request", name: "profile:" + spec.Name, trace: id,
		status: resp.Status, wallNS: resp.WallNS, budgets: resp.Budget,
		fail: jobstore.NewJobError(err, 0, res.SpanID), reg: reqReg})

	summary := RequestSummary{
		ID: id, Workload: spec.Name, Status: resp.Status, Error: resp.Error,
		Degraded: resp.Degraded,
		Start:    start, WallNS: resp.WallNS, Ops: resp.Ops, Spans: resp.Spans,
	}
	if s.store != nil {
		// Persist the summary (minus the span tree, which can be large
		// and is only useful with the live process) so /v1/requests
		// survives restarts.
		summary.Spans = nil
		if data, err := json.Marshal(&summary); err == nil {
			if err := s.store.AppendHistory(data); err != nil {
				s.logf("polyprof: request history not persisted: %v", err)
			}
		}
	} else {
		s.mu.Lock()
		s.ring = append(s.ring, summary)
		if len(s.ring) > s.opts.RingSize {
			s.ring = s.ring[len(s.ring)-s.opts.RingSize:]
		}
		s.mu.Unlock()
	}

	s.logf("polyprof: %s workload=%s status=%s wall=%s ops=%d",
		id, spec.Name, resp.Status, time.Duration(resp.WallNS), resp.Ops)
	return resp
}

func (s *Server) handleRequests(w http.ResponseWriter, req *http.Request) {
	limit, ok := queryInt(w, req.URL.Query(), "limit", 0, 1)
	if !ok {
		return
	}
	var out []RequestSummary
	if s.store != nil {
		// Durable history: summaries persisted through the job store's
		// WAL (without their span trees), so the listing survives
		// restarts.
		blobs := s.store.History()
		out = make([]RequestSummary, 0, len(blobs))
		for i := len(blobs) - 1; i >= 0; i-- { // newest first
			var rs RequestSummary
			if err := json.Unmarshal(blobs[i], &rs); err == nil {
				out = append(out, rs)
			}
		}
	} else {
		s.mu.Lock()
		out = make([]RequestSummary, 0, len(s.ring))
		for i := len(s.ring) - 1; i >= 0; i-- { // newest first
			out = append(out, s.ring[i])
		}
		s.mu.Unlock()
	}
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{"requests": out})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workloads": workloads.Names()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"in_flight": len(s.sem),
		"capacity":  cap(s.sem),
	})
}

// handleReadyz is the load-balancer signal, distinct from /healthz
// liveness: 503 until Open has finished WAL replay and started the
// pool/reclaimer, 200 after.  A restarting coordinator is alive long
// before it is ready; routing to it early would 503 real traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "starting",
			"reason": "job store replay / worker pool startup in progress",
		})
		return
	}
	body := map[string]any{"status": "ready", "durable": s.store != nil}
	if s.store != nil {
		body["leases"] = s.store.Leases()
	}
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(data)
	w.Write([]byte("\n"))
}
