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
// Every profile request runs against its own enabled obs.Registry with
// a "request:<workload>" root span; the pipeline stages nest under the
// root via the obs.Scope threaded through core.Run.  On completion the
// request registry's counters, gauges, and histograms merge into the
// process registry, while the span tree stays with the request summary
// — concurrent requests never bleed into each other.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polyprof/internal/budget"
	"polyprof/internal/core"
	"polyprof/internal/faultinject"
	"polyprof/internal/feedback"
	"polyprof/internal/jobexec"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
	"polyprof/internal/parddg"
	"polyprof/internal/workloads"
)

// handlerFault injects at the top of each profile request, inside the
// handler's recovery scope; its panics exercise the 500-JSON path.
var handlerFault = faultinject.Point("serve.handler")

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
	// keeps (default 64).
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
	// DataDir enables the durable job subsystem: jobs and request
	// history are WAL-persisted here and survive restarts.  Empty
	// disables /v1/jobs (503) and keeps history in the volatile ring.
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
	// ParallelDDG selects the sharded parallel dependence engine with
	// that many shard workers for every profile request and job; 0
	// keeps the sequential builder.  Reports are bit-for-bit identical
	// either way.
	ParallelDDG int
	// EpochEvents streams every job by default: attempts pause each
	// EpochEvents dynamic instructions to render a provisional report
	// (GET /v1/jobs/{id}?stream=1) and commit a WAL-fsynced resume
	// checkpoint.  Per-job ?epoch-events=N overrides (an explicit 0
	// opts out); 0 here leaves jobs buffered unless they opt in.
	// Reports are byte-identical either way.
	EpochEvents uint64
	// SlowJobThreshold arms a per-attempt watchdog: a job attempt still
	// running after this long freezes the flight recorder into a
	// "slow-job" bundle (once per job within the dedupe window).  Zero
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
		// The flight recorder goes live before the store opens, so crash
		// recovery itself is ring history and recovered jobs can trigger
		// bundles.  A recorder failure degrades diagnostics, never
		// serving.
		if err := flight.Default.Enable(filepath.Join(s.opts.DataDir, "flightrec"), flight.Options{
			Registry: s.opts.Registry,
			Logf:     s.opts.Logf,
		}); err != nil {
			s.logf("polyprof: flight recorder disabled: %v", err)
		}
		store, recovered, err := jobstore.Open(s.opts.DataDir, jobstore.Options{
			Registry: s.opts.Registry,
			Logf:     s.opts.Logf,
		})
		if err != nil {
			return fmt.Errorf("serve: opening job store: %w", err)
		}
		s.store = store
		// Each job interrupted by the previous process's death gets a
		// bundle naming the stage it died in — the crash's black box,
		// written by the process that found the wreckage.
		for _, j := range recovered {
			if ev, ok := j.CrashRecovered(); ok {
				flight.Trigger("crash-recovery", flight.TriggerInfo{
					Trace: j.TraceID, Job: j.ID, Stage: j.InterruptedStage(),
					Detail: ev.Detail, Extra: j,
				})
			}
		}
		s.pool = jobstore.NewPool(store, s.runJob, jobstore.PoolOptions{
			Workers:         s.opts.Workers,
			MaxAttempts:     s.opts.MaxAttempts,
			TTL:             s.opts.JobTTL,
			DefaultLeaseTTL: s.opts.LeaseTTL,
			Registry:        s.opts.Registry,
			Logf:            s.opts.Logf,
		})
		s.pool.Start(recovered)
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

// Handler returns the daemon's HTTP mux, wrapped in the request-ID /
// flight middleware: every response (including 4xx/5xx error paths)
// carries an X-Request-ID header, and 5xx responses freeze the flight
// recorder.
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

// statusWriter records the status a handler wrote, so the middleware
// can observe 5xx outcomes after the fact.
type statusWriter struct {
	http.ResponseWriter
	status int
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

// maxInboundRequestID bounds the client-chosen trace ID so a hostile
// header cannot bloat logs, traces, and flight bundles.
const maxInboundRequestID = 128

// middleware assigns every request its trace ID — the inbound
// X-Request-ID when the client sent a plausible one, a fresh "req-N"
// otherwise — echoes it on the response (error paths included, since
// the header is set before the handler runs), and turns any 5xx into a
// flight-recorder trigger carrying that ID.
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
		if !s.ready.Load() {
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
		start := time.Now()
		// The deferred tail still observes the status when a handler
		// panic unwinds through here (recoverJSON may have aborted the
		// connection; sw.status is 0 then and no trigger fires).
		defer func() {
			if flight.Enabled() {
				flight.LogEvent(flight.Event{
					Kind: "request", Name: req.Method + " " + req.URL.Path,
					Trace: id, Detail: fmt.Sprintf("status=%d", sw.status),
					WallNS: int64(time.Since(start)),
				})
			}
			if sw.status >= 500 {
				flight.Trigger("serve-5xx", flight.TriggerInfo{
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
	name := req.URL.Query().Get("workload")
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
	// disconnects; the timeout turns a runaway workload into a 408
	// instead of a stuck slot.
	ctx := req.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}

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

// runProfile executes the pipeline for one request under its own
// registry and budget and returns the response; the summary lands in
// the ring and the request metrics merge into the process registry.
func (s *Server) runProfile(ctx context.Context, id string, spec workloads.Spec, wantMetrics bool) *ProfileResponse {
	reqReg := obs.NewRegistry()
	reqReg.SetEnabled(true)
	root := reqReg.Scope().StartSpan("request:" + spec.Name)
	sc := reqReg.Scope().WithSpan(root)

	resp := &ProfileResponse{RequestID: id, Workload: spec.Name, Status: "ok", SpanID: root.ID()}
	start := time.Now()

	flight.LogEvent(flight.Event{Kind: "request", Name: "profile:" + spec.Name, Trace: id, Detail: "start"})
	bud := budget.New(ctx, s.opts.Limits)
	if err := s.runPipeline(bud, sc, root, spec, resp); err != nil {
		resp.Error = err.Error()
		root.Fail(err)
		if resp.Status == "ok" { // not already "panic"
			resp.Status = classifyError(err)
		}
	}
	root.End()
	resp.WallNS = int64(time.Since(start))
	resp.Spans = reqReg.Spans()
	if rep := parddg.Diagnose(resp.Spans); rep != nil {
		// A parallel run's diagnosis rides along in any later flight
		// bundle, and its headline lands in the ring.  The engine has
		// already published its gauges into the request registry.
		if data, err := json.Marshal(rep); err == nil {
			flight.Default.SetDiagnosis(data)
		}
		flight.LogEvent(flight.Event{
			Kind: "diagnosis", Name: "parddg", Trace: id,
			Detail: fmt.Sprintf("serial_frac=%.2f dominant=%s", rep.SerialFrac, rep.Dominant),
			WallNS: rep.CriticalPathNS,
		})
	}
	if wantMetrics {
		snap := reqReg.Snapshot()
		resp.Metrics = &MetricsBody{
			Counters: snap.Counters, Gauges: snap.Gauges, Histograms: snap.Histograms,
		}
	}

	// Fold the request registry into the process one (spans stay with
	// the request) and record the daemon's own serving metrics.  The
	// request registry is exactly this request's metric delta, so its
	// summary enters the flight ring before it dissolves into the
	// process totals.
	logMetricsDelta("profile:"+spec.Name, id, reqReg)
	s.reg.Merge(reqReg)
	s.reg.Add("serve.requests", 1)
	if resp.Status != "ok" {
		s.reg.Add("serve.requests.errors", 1)
	}
	switch resp.Status {
	case "timeout":
		s.reg.Add("serve.requests.timeouts", 1)
	case "canceled":
		s.reg.Add("serve.requests.canceled", 1)
	}
	if resp.Degraded {
		s.reg.Add("serve.requests.degraded", 1)
	}
	s.reg.Observe("serve.request.wall_ns", uint64(resp.WallNS))
	if resp.Status == "budget" || resp.Status == "timeout" {
		// A hard budget abort is an anomaly worth a black box: the ring
		// holds the stages and budget decisions leading up to it.
		flight.Trigger("budget-exhausted", flight.TriggerInfo{
			Trace:  id,
			Detail: fmt.Sprintf("workload %s: %s", spec.Name, resp.Error),
			Extra:  map[string]any{"status": resp.Status, "budget": resp.Budget, "wall_ns": resp.WallNS},
		})
	}
	flight.LogEvent(flight.Event{
		Kind: "request", Name: "profile:" + spec.Name, Trace: id,
		Detail: "status=" + resp.Status, WallNS: resp.WallNS,
	})

	summary := RequestSummary{
		ID: id, Workload: spec.Name, Status: resp.Status, Error: resp.Error,
		Degraded: resp.Degraded,
		Start:    start, WallNS: resp.WallNS, Ops: resp.Ops, Spans: resp.Spans,
	}
	s.mu.Lock()
	s.ring = append(s.ring, summary)
	if len(s.ring) > s.opts.RingSize {
		s.ring = s.ring[len(s.ring)-s.opts.RingSize:]
	}
	s.mu.Unlock()
	if s.store != nil {
		// Persist the summary (minus the span tree, which can be large
		// and is only useful with the live process) so /v1/requests
		// survives restarts.
		compact := summary
		compact.Spans = nil
		if data, err := json.Marshal(&compact); err == nil {
			if err := s.store.AppendHistory(data); err != nil {
				s.logf("polyprof: request history not persisted: %v", err)
			}
		}
	}

	s.logf("polyprof: %s workload=%s status=%s wall=%s ops=%d",
		id, spec.Name, resp.Status, time.Duration(resp.WallNS), resp.Ops)
	return resp
}

// runPipeline is the recovered body of one profile request: any panic
// here — the injected serve.handler fault, a hostile workload slipping
// past a stage's own recovery — becomes a "panic" response instead of
// killing the daemon.
func (s *Server) runPipeline(bud *budget.Budget, sc obs.Scope, root *obs.Span, spec workloads.Spec, resp *ProfileResponse) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.reg.Add("serve.panics", 1)
		resp.Status = "panic"
		if e, ok := r.(error); ok {
			err = fmt.Errorf("handler panic: %w", e)
		} else {
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	if err := handlerFault.Hit(); err != nil {
		return err
	}
	prog := spec.Build()
	opts := core.DefaultRunOptions()
	opts.Obs = sc
	opts.Budget = bud
	opts.ParallelDDG = s.opts.ParallelDDG
	p, err := core.Run(prog, opts)
	if err != nil {
		return err
	}
	rep, err := feedback.AnalyzeChecked(p)
	if err != nil {
		return err
	}
	cm := feedback.DefaultCostModel()
	data, err := rep.JSON(&cm)
	if err != nil {
		return err
	}
	resp.Report = data
	resp.Ops = p.DDG.TotalOps
	if d := p.DDG.Degraded; d != nil {
		resp.Degraded = true
		resp.Budget = d.Budgets
	}
	root.AddEvents(p.DDG.TotalOps)
	return nil
}

// classifyError maps a pipeline error to a response status: budget
// aborts split into timeout/canceled/budget, anything else is a plain
// error.  The mapping is jobexec's, so sync requests and job attempts
// classify identically.
func classifyError(err error) string { return jobexec.Classify(err) }

func (s *Server) handleRequests(w http.ResponseWriter, req *http.Request) {
	limit := 0
	if v := req.URL.Query().Get("limit"); v != "" {
		limit, _ = strconv.Atoi(v)
	}
	var out []RequestSummary
	if s.store != nil {
		// Durable history: summaries persisted through the job store's
		// WAL, so the listing survives restarts (span trees are only
		// available for requests served by this process, via the ring).
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
