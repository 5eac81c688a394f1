package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"polyprof/internal/jobapi"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs/flight"
)

// Lease-protocol body caps.  The API is auth-less like the rest of the
// daemon, so every inbound body is bounded and structurally validated
// before it touches the store: control bodies are tiny, result bodies
// carry a report but must stay well under the WAL's record frame.
const (
	maxLeaseControlBody = 1 << 20
	maxLeaseResultBody  = 12 << 20
)

// decodeLeaseBody reads a capped JSON body into v, mapping oversized
// and malformed inputs to structured 400s.  An empty body decodes the
// zero value (claims without preferences are legal).
func decodeLeaseBody(w http.ResponseWriter, req *http.Request, maxBytes int64, v any) bool {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBytes+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return false
	}
	if int64(len(body)) > maxBytes {
		http.Error(w, fmt.Sprintf("body exceeds the %d-byte limit", maxBytes), http.StatusRequestEntityTooLarge)
		return false
	}
	if len(body) == 0 {
		return true
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, fmt.Sprintf("malformed body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// leaseStoreReady answers whether the lease API can serve, writing the
// 503 if not.  The middleware's ready gate already ordered us after
// Open; this is the durable-subsystem check.
func (s *Server) leaseStoreReady(w http.ResponseWriter) bool {
	if s.store == nil || s.pool == nil {
		http.Error(w, "durable jobs are disabled; restart the coordinator with -data-dir", http.StatusServiceUnavailable)
		return false
	}
	return true
}

// handleLeases serves POST /v1/leases: a remote worker claims the
// oldest ready job.  201 with the grant (lease + job), 204 when no job
// is ready — the worker's signal to poll again later.
func (s *Server) handleLeases(rw http.ResponseWriter, req *http.Request) {
	w := tracked(rw)
	defer s.recoverJSON(w)
	if !s.leaseStoreReady(w) {
		return
	}
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "POST /v1/leases claims a ready job", http.StatusMethodNotAllowed)
		return
	}
	var ar jobapi.AcquireRequest
	if !decodeLeaseBody(w, req, maxLeaseControlBody, &ar) {
		return
	}
	worker := ar.Worker
	if worker == "" {
		worker = "remote"
	}
	if len(worker) > 128 {
		worker = worker[:128]
	}
	ttl := jobstore.ClampLeaseTTL(time.Duration(ar.TTLNS), s.pool.DefaultLeaseTTL())
	lease, job, err := s.pool.Acquire(worker, ttl)
	if err != nil {
		if errors.Is(err, jobstore.ErrNoReadyJob) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// A streaming job's committed checkpoint rides along with the grant:
	// the worker resumes from it instead of replaying from event zero.
	ck := s.store.LoadCheckpoint(job.ID)
	writeJSON(w, http.StatusCreated, jobapi.Grant{Lease: lease, Job: job, Checkpoint: ck})
}

// handleLease serves the per-lease calls:
//
//	PUT  /v1/leases/{id}             heartbeat: extend the TTL under the token
//	POST /v1/leases/{id}/checkpoint  commit a streaming epoch checkpoint
//	POST /v1/leases/{id}/result      report the attempt's terminal outcome
//
// Fencing failures are 409 (the token no longer owns the job), deleted
// or unknown jobs 410 — structured verdicts a zombie worker can act on.
func (s *Server) handleLease(rw http.ResponseWriter, req *http.Request) {
	w := tracked(rw)
	defer s.recoverJSON(w)
	if !s.leaseStoreReady(w) {
		return
	}
	rest := strings.TrimPrefix(req.URL.Path, "/v1/leases/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		http.Error(w, "missing job id", http.StatusBadRequest)
		return
	}
	switch {
	case sub == "" && req.Method == http.MethodPut:
		s.handleLeaseHeartbeat(w, req, id)
	case sub == "checkpoint" && req.Method == http.MethodPost:
		s.handleLeaseCheckpoint(w, req, id)
	case sub == "result" && req.Method == http.MethodPost:
		s.handleLeaseResult(w, req, id)
	default:
		w.Header().Set("Allow", "PUT, POST")
		http.Error(w, "PUT /v1/leases/{id} heartbeats; POST /v1/leases/{id}/checkpoint commits an epoch; POST /v1/leases/{id}/result reports", http.StatusMethodNotAllowed)
	}
}

// handleLeaseCheckpoint commits a remote streaming attempt's epoch
// checkpoint under its fencing token.  The 200 is only written after
// the store fsynced the WAL record — to the worker, 200 means the
// epoch is committed and it may run past the boundary.
func (s *Server) handleLeaseCheckpoint(w http.ResponseWriter, req *http.Request, id string) {
	var cr jobapi.CheckpointRequest
	if !decodeLeaseBody(w, req, maxLeaseResultBody, &cr) {
		return
	}
	if len(cr.Data) == 0 {
		http.Error(w, "checkpoint without data", http.StatusBadRequest)
		return
	}
	err := s.store.SaveLeasedCheckpoint(id, cr.Token, &jobstore.JobCheckpoint{
		JobID: id, Epoch: cr.Epoch, Events: cr.Events, Attempt: cr.Attempt, Data: cr.Data,
	})
	if err != nil {
		s.writeLeaseError(w, err)
		return
	}
	s.reg.Add("jobs.leases.checkpoints", 1)
	writeJSON(w, http.StatusOK, map[string]any{"committed": true, "epoch": cr.Epoch})
}

func (s *Server) handleLeaseHeartbeat(w http.ResponseWriter, req *http.Request, id string) {
	var hr jobapi.HeartbeatRequest
	if !decodeLeaseBody(w, req, maxLeaseControlBody, &hr) {
		return
	}
	ttl := jobstore.ClampLeaseTTL(time.Duration(hr.TTLNS), s.pool.DefaultLeaseTTL())
	lease, err := s.store.RenewLease(id, hr.Token, ttl)
	if err != nil {
		s.writeLeaseError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (s *Server) handleLeaseResult(w http.ResponseWriter, req *http.Request, id string) {
	var rr jobapi.ResultRequest
	if !decodeLeaseBody(w, req, maxLeaseResultBody, &rr) {
		return
	}
	if (rr.Result == nil) == (rr.Error == nil) {
		http.Error(w, "exactly one of result or error must be set", http.StatusBadRequest)
		return
	}
	var (
		state jobstore.State
		err   error
	)
	if rr.Result != nil {
		err = s.pool.Complete(id, rr.Token, rr.Result, rr.TraceEvents)
		state = jobstore.StateSucceeded
	} else {
		state, err = s.pool.Fail(id, rr.Token, rr.Error, rr.TraceEvents)
	}
	if err != nil {
		if errors.Is(err, jobstore.ErrFenced) {
			// The dangerous race, made safe: a zombie worker (reclaimed
			// lease, coordinator restart, duplicate post) tried to land a
			// terminal result.  The store fenced it; record the incident.
			job := s.store.Get(id)
			var trace string
			if job != nil {
				trace = job.TraceID
			}
			s.store.Recorder().Trigger("zombie-fenced", flight.TriggerInfo{
				Trace: trace, Job: id,
				Detail: fmt.Sprintf("fenced result post for %s (token %d): %v", id, rr.Token, err),
				Extra:  job,
			})
		}
		s.writeLeaseError(w, err)
		return
	}
	// The store accepted the attempt: it meets the same anomaly decision
	// as a local one, off the verdict its worker's attempt runner wrote.
	if job := s.store.Get(id); job != nil {
		s.finish(jobOutcome(job, job.Attempts, rr.Result, rr.Error, nil))
	}
	writeJSON(w, http.StatusOK, jobapi.ResultResponse{State: state})
}

// writeLeaseError maps the store's lease error taxonomy onto the
// protocol statuses: fenced → 409, gone → 410, anything else (a WAL
// append failure — the worker should retry the post) → 500.
func (s *Server) writeLeaseError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobstore.ErrFenced):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, jobstore.ErrLeaseGone):
		http.Error(w, err.Error(), http.StatusGone)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
