package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
)

// record is the WAL envelope.  Every state transition of every job is
// one record; replay folds them, last writer wins per job.
type record struct {
	// T is the record type: "submit", "state", "trace", "ckpt",
	// "delete", or "hist".  "trace" records carry only lifecycle trace
	// events and are appended unsynced (diagnostics: they survive
	// kill -9 via the page cache, and losing them on power failure
	// loses no durable state); replay also accepts "stage", the name
	// older data directories gave the trace records of running jobs.
	// "ckpt" records carry a streaming epoch checkpoint, fsynced —
	// "committed epoch" means exactly this append survived.
	T string `json:"t"`
	// Job is the full job at submission time (T == "submit").
	Job *Job `json:"job,omitempty"`
	// ID/State/... describe a transition (T == "state").
	ID        string    `json:"id,omitempty"`
	State     State     `json:"state,omitempty"`
	Attempts  int       `json:"attempts,omitempty"`
	At        time.Time `json:"at,omitempty"`
	NextRunAt time.Time `json:"next_run_at,omitempty"`
	Error     *JobError `json:"error,omitempty"`
	Result    *Result   `json:"result,omitempty"`
	// TraceEvents are the lifecycle trace events this transition
	// appends to the job (T == "state" or "trace").
	TraceEvents []TraceEvent `json:"trace,omitempty"`
	// Fence is the fencing token granted with a lease transition
	// (T == "state" into running via AcquireLease); replay folds the
	// maximum so tokens stay monotonic across restarts.  Records written
	// before every attempt was leased carry none.  Worker names the node
	// the lease went to (diagnostics only).
	Fence  uint64 `json:"fence,omitempty"`
	Worker string `json:"worker,omitempty"`
	// Hist is one request-history entry (T == "hist"), an opaque blob
	// owned by the serving layer.
	Hist json.RawMessage `json:"hist,omitempty"`
	// Ckpt is a streaming epoch checkpoint (T == "ckpt"); replay keeps
	// the latest per job.
	Ckpt *JobCheckpoint `json:"ckpt,omitempty"`
}

// traceAppend appends lifecycle events to the job's persisted trace,
// enforcing MaxTraceEvents (one truncation marker past the cap), and
// returns the events actually appended — the slice the caller embeds
// in the WAL record so replay reconstructs the same trace.
func traceAppend(j *Job, evs ...TraceEvent) []TraceEvent {
	var out []TraceEvent
	for _, ev := range evs {
		if len(j.Trace) >= MaxTraceEvents {
			if len(j.Trace) == MaxTraceEvents {
				mark := TraceEvent{At: ev.At, Event: "trace-truncated"}
				j.Trace = append(j.Trace, mark)
				out = append(out, mark)
			}
			break
		}
		j.Trace = append(j.Trace, ev)
		out = append(out, ev)
	}
	return out
}

// mirror logs lifecycle events the store just recorded into its flight
// ring, which has no other source of job events: kind "job", named
// after the trace event, carrying the job's trace ID and a detail that
// leads with the job ID.  Replay does not call it: the ring holds what
// this store saw happen.
func (s *Store) mirror(j *Job, evs []TraceEvent) {
	if s.rec == nil {
		return
	}
	for _, ev := range evs {
		detail := j.ID
		if ev.Attempt > 0 {
			detail += fmt.Sprintf(" attempt %d", ev.Attempt)
		}
		if ev.Stage != "" {
			detail += " stage " + ev.Stage
		}
		if ev.Detail != "" {
			detail += ": " + ev.Detail
		}
		s.rec.LogEvent(flight.Event{At: ev.At, Kind: "job", Name: ev.Event, Trace: j.TraceID, Detail: detail, WallNS: ev.WallNS})
	}
}

// snapshot is the compacted on-disk state: everything the WAL records
// of earlier generations said, folded.
type snapshot struct {
	Gen     uint64            `json:"gen"`
	Seq     uint64            `json:"seq"`
	Fence   uint64            `json:"fence,omitempty"`
	Jobs    []*Job            `json:"jobs"`
	History []json.RawMessage `json:"history,omitempty"`
	// Checkpoints carries the live streaming checkpoints across
	// compaction (one per non-terminal streaming job).
	Checkpoints []*JobCheckpoint `json:"checkpoints,omitempty"`
}

// Options tunes a Store.
type Options struct {
	// SnapshotEvery compacts the WAL after this many appended records
	// (default 256; negative disables automatic compaction).
	SnapshotEvery int
	// MaxHistory bounds the persisted request-history entries kept in
	// memory and in snapshots (default 256).
	MaxHistory int
	// Registry receives job-state gauges, retry counters and the
	// WAL-fsync histogram (default obs.Default).
	Registry *obs.Registry
	// Logf receives replay warnings and lifecycle lines (nil to
	// disable).
	Logf func(format string, args ...any)
}

// Store is the durable job store: an in-memory map of jobs whose every
// transition is WAL-appended and fsynced before it is acknowledged.
// All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	reg  *obs.Registry
	// rec is the daemon's flight recorder under FlightDir (nil when it
	// failed to open: diagnostics degrade, the store does not).
	rec *flight.Recorder

	mu      sync.Mutex
	wal     *wal
	walPath string
	gen     uint64
	appends int // records since the last snapshot
	seq     uint64
	jobs    map[string]*Job
	order   []string // submission order
	history []json.RawMessage
	closed  bool

	// fence is the monotonic fencing-token counter behind leases; it is
	// WAL-carried on every grant and snapshot-persisted, so a token
	// granted after a restart always exceeds any granted before.
	fence uint64
	// leases holds the outstanding claims of local slots and remote
	// workers, keyed by job id.  Deliberately volatile: a restart
	// invalidates every lease (the leased jobs replay as running and are
	// re-queued).
	leases map[string]*Lease
	// cache indexes succeeded jobs by their content-address (CacheKey),
	// rebuilt from the jobs map on open — a duplicate submission is
	// answered from here in O(1).
	cache map[string]string

	// live holds the span registries of currently running attempts,
	// keyed by job id: a job's live progress is its attempt's newest
	// open stage span.  Deliberately volatile (never WAL-persisted):
	// progress is only meaningful within one attempt of one process, so
	// a restart starts from a clean slate.
	live map[string]*obs.Registry

	// ckpts holds the latest committed streaming checkpoint per job id.
	// WAL-persisted and snapshot-carried — unlike progress, a
	// checkpoint is exactly the state that must outlive a crash —
	// and cleared the moment the job goes terminal.
	ckpts map[string]*JobCheckpoint
}

// FlightDir is the directory under a store's data directory that holds
// its flight recorder's incident bundles.
const FlightDir = "flightrec"

// Open loads (or initializes) a store under dir: it opens the flight
// recorder under FlightDir, reads the latest snapshot, replays every
// surviving WAL generation on top of it, truncates any torn tail, and
// re-enqueues jobs that were running at crash time, each with a
// crash-recovered trace event and a crash-recovery flight trigger.  The returned recovered list holds the
// jobs needing (re-)execution — queued and formerly-running — in
// submission order.
func Open(dir string, opts Options) (*Store, []*Job, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 256
	}
	if opts.MaxHistory <= 0 {
		opts.MaxHistory = 256
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		reg:    opts.Registry,
		jobs:   map[string]*Job{},
		live:   map[string]*obs.Registry{},
		leases: map[string]*Lease{},
		cache:  map[string]string{},
		ckpts:  map[string]*JobCheckpoint{},
	}
	// The recorder goes live before replay, so crash recovery itself is
	// ring history and each job it re-enqueues writes a bundle.
	rec, err := flight.Open(filepath.Join(dir, FlightDir), flight.Options{Registry: opts.Registry, Logf: opts.Logf})
	if err != nil {
		s.logf("jobstore: flight recorder disabled: %v", err)
	}
	s.rec = rec
	if err := s.load(); err != nil {
		return nil, nil, err
	}

	// Crash recovery: a job that was running when the daemon died goes
	// back to the queue — locally executing or remotely leased alike
	// (replay restores no lease, so every pre-crash lease is implicitly
	// revoked and its token fenced).  The re-run's report is identical
	// to an uninterrupted run because the pipeline is deterministic.
	var recovered []*Job
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State == StateSucceeded && j.CacheKey != "" {
			s.cache[j.CacheKey] = j.ID
		}
		if j.State == StateRunning {
			stage := j.InterruptedStage()
			detail := fmt.Sprintf("process died during attempt %d", j.Attempts)
			if stage != "" {
				detail += " in stage " + stage
			}
			s.mirror(j, traceAppend(j, TraceEvent{
				At: time.Now().UTC(), Event: TraceCrashRecovered,
				Stage: stage, Attempt: j.Attempts, Detail: detail,
			}))
			j.State = StateQueued
			s.logf("jobstore: job %s was running at crash time; re-enqueued (attempt %d)", j.ID, j.Attempts)
			// The crash's black box, written by the process that found
			// the wreckage: the bundle names the interrupted stage.
			s.rec.Trigger("crash-recovery", flight.TriggerInfo{
				Trace: j.TraceID, Job: j.ID, Stage: stage, Detail: detail, Extra: j.Clone(),
			})
		}
		if j.State == StateQueued {
			recovered = append(recovered, j.Clone())
		}
	}
	// Persist the re-enqueue so a crash before the next transition does
	// not replay stale running states, then open the next generation's
	// append handle via a compaction.
	if err := s.compactLocked(); err != nil {
		return nil, nil, err
	}
	s.publishGauges()
	return s, recovered, nil
}

// load reads snapshot + WAL generations into memory and opens the
// current generation for append.
func (s *Store) load() error {
	snapPath := filepath.Join(s.dir, "snapshot.json")
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			// A corrupt snapshot loses the state it compacted; WAL
			// generations still on disk are replayed below.
			s.logf("jobstore: %s is corrupt (%v); starting from the surviving WAL generations", snapPath, err)
			s.reg.Add("jobstore.snapshot.corrupt", 1)
		} else {
			s.gen = snap.Gen
			s.seq = snap.Seq
			s.fence = snap.Fence
			for _, j := range snap.Jobs {
				s.jobs[j.ID] = j
				s.order = append(s.order, j.ID)
			}
			for _, h := range snap.History {
				s.pushHistory(h) // a smaller MaxHistory than the snapshot's trims it
			}
			for _, ck := range snap.Checkpoints {
				// The replay rule: only a live job keeps its checkpoint
				// (snapshots written before every terminal transition
				// cleared it may still carry dead ones).
				if ck == nil {
					continue
				}
				if j := s.jobs[ck.JobID]; j != nil && !j.State.Terminal() {
					s.ckpts[ck.JobID] = ck
				}
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	// Replay WAL generations >= the snapshot's, oldest first.  Older
	// generations already folded into the snapshot are ignored (a crash
	// between snapshot rename and old-WAL unlink leaves them behind).
	gens, err := s.walGenerations()
	if err != nil {
		return err
	}
	for _, g := range gens {
		path := s.walFile(g)
		if g < s.gen {
			continue
		}
		good, skipped, err := replayWAL(path, s.applyRecord, s.logf)
		if err != nil {
			return err
		}
		if skipped > 0 {
			s.reg.Add("jobstore.replay.skipped", uint64(skipped))
		}
		if err := truncateTail(path, good); err != nil {
			return err
		}
	}
	return nil
}

// applyRecord folds one replayed WAL record into memory.
func (s *Store) applyRecord(payload []byte) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		s.logf("jobstore: skipping undecodable WAL record (%v)", err)
		s.reg.Add("jobstore.replay.skipped", 1)
		return
	}
	switch rec.T {
	case "submit":
		if rec.Job == nil || rec.Job.ID == "" {
			return
		}
		if _, ok := s.jobs[rec.Job.ID]; !ok {
			s.order = append(s.order, rec.Job.ID)
		}
		s.jobs[rec.Job.ID] = rec.Job
		if n := jobSeq(rec.Job.ID); n > s.seq {
			s.seq = n
		}
	case "state":
		// Fencing tokens must stay monotonic across restarts even when
		// the job the grant referred to is gone or terminal.
		if rec.Fence > s.fence {
			s.fence = rec.Fence
		}
		j, ok := s.jobs[rec.ID]
		if !ok {
			s.logf("jobstore: state record for unknown job %s; skipping", rec.ID)
			return
		}
		if j.State.Terminal() {
			// Never regress a terminal job: this is what makes replay
			// idempotent and forbids double-completion.
			return
		}
		traceAppend(j, rec.TraceEvents...)
		j.State = rec.State
		if rec.Attempts > 0 {
			j.Attempts = rec.Attempts
		}
		j.NextRunAt = rec.NextRunAt
		j.Error = rec.Error
		j.Result = rec.Result
		switch rec.State {
		case StateRunning:
			j.StartedAt = rec.At
		case StateSucceeded, StateFailed:
			j.FinishedAt = rec.At
			delete(s.ckpts, rec.ID)
		}
	case "trace", "stage":
		j, ok := s.jobs[rec.ID]
		if !ok {
			return
		}
		traceAppend(j, rec.TraceEvents...)
	case "ckpt":
		if rec.Ckpt == nil || rec.Ckpt.JobID == "" {
			return
		}
		if j, ok := s.jobs[rec.Ckpt.JobID]; !ok || j.State.Terminal() {
			return
		}
		// Latest-wins in replay order: a later record is a later commit
		// (a retry that restarted from scratch rightfully resets to its
		// own, earlier epochs).
		s.ckpts[rec.Ckpt.JobID] = rec.Ckpt
	case "delete":
		if _, ok := s.jobs[rec.ID]; !ok {
			return
		}
		delete(s.jobs, rec.ID)
		delete(s.ckpts, rec.ID)
		s.dropOrder(rec.ID)
	case "hist":
		s.pushHistory(rec.Hist)
	default:
		s.logf("jobstore: unknown WAL record type %q; skipping", rec.T)
	}
}

func (s *Store) dropOrder(id string) {
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

func jobSeq(id string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64)
	return n
}

func (s *Store) walFile(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal.%06d.log", gen))
}

// walGenerations lists the on-disk WAL generation numbers, sorted.
func (s *Store) walGenerations() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal.") || !strings.HasSuffix(name, ".log") {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal."), ".log"), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// append writes one record through the WAL (fsynced) and triggers
// compaction when due.  Callers hold s.mu.
func (s *Store) appendLocked(rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if s.wal == nil {
		return fmt.Errorf("jobstore: store is closed")
	}
	if err := s.wal.append(payload); err != nil {
		return err
	}
	s.appends++
	if s.opts.SnapshotEvery > 0 && s.appends >= s.opts.SnapshotEvery {
		if err := s.compactLocked(); err != nil {
			// Compaction failure is not fatal: the WAL keeps growing
			// and keeps every record, so durability is unaffected.
			s.logf("jobstore: snapshot compaction failed: %v", err)
			s.appends = 0
		}
	}
	return nil
}

// compactLocked writes a snapshot of the current state and rolls the
// WAL to the next generation:
//
//  1. create the next generation's (empty) WAL file,
//  2. atomically replace snapshot.json (tmp + fsync + rename),
//  3. switch appends to the new generation and unlink old WAL files.
//
// A crash between any of these steps recovers: before (2) the old
// snapshot + old WALs are authoritative (the new empty WAL replays as
// nothing); after (2) the new snapshot covers everything and leftover
// old WALs are ignored by generation.
func (s *Store) compactLocked() error {
	if err := snapshotFault.Hit(); err != nil {
		return fmt.Errorf("jobstore: snapshot: %w", err)
	}
	nextGen := s.gen + 1
	nw, err := openWAL(s.walFile(nextGen), s.reg)
	if err != nil {
		return err
	}

	snap := snapshot{Gen: nextGen, Seq: s.seq, Fence: s.fence, History: s.history}
	for _, id := range s.order {
		snap.Jobs = append(snap.Jobs, s.jobs[id])
		if ck := s.ckpts[id]; ck != nil {
			snap.Checkpoints = append(snap.Checkpoints, ck)
		}
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		nw.close()
		return err
	}
	snapPath := filepath.Join(s.dir, "snapshot.json")
	tmp := snapPath + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		nw.close()
		return err
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		nw.close()
		return err
	}
	// Make the new generation's file creation and the snapshot rename
	// durable before unlinking the old generations: without the
	// directory fsync, a power failure could persist the unlinks but not
	// the rename, losing acknowledged jobs.
	if err := syncDir(s.dir); err != nil {
		nw.close()
		return err
	}

	oldGen := s.gen
	if s.wal != nil {
		s.wal.close()
	}
	s.wal, s.walPath, s.gen, s.appends = nw, s.walFile(nextGen), nextGen, 0
	// Old generations are now folded into the snapshot; best-effort
	// cleanup (leftovers are ignored by generation on the next open).
	if gens, err := s.walGenerations(); err == nil {
		for _, g := range gens {
			if g <= oldGen {
				os.Remove(s.walFile(g))
			}
		}
	}
	s.reg.Add("jobstore.snapshots", 1)
	return nil
}

// syncDir fsyncs a directory so the entry operations inside it (file
// creations, renames) are durable, not just the file contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Submit persists a new job and acknowledges it: when Submit returns
// nil the job's submit record is on disk (fsynced) and will survive
// kill -9.  The job's ID and initial state are filled in.
func (s *Store) Submit(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j.ID = fmt.Sprintf("job-%d", s.seq)
	j.State = StateQueued
	j.SubmittedAt = time.Now().UTC()
	// The submit record carries the full job, trace included, so these
	// two events are durable the moment the submission is acknowledged.
	evs := traceAppend(j,
		TraceEvent{At: j.SubmittedAt, Event: TraceIntake, Detail: j.Name()},
		TraceEvent{At: j.SubmittedAt, Event: TraceWALAppend})
	if err := s.appendLocked(record{T: "submit", Job: j}); err != nil {
		// Not acknowledged: forget the job (and give the sequence
		// number up; ids are unique, not dense).
		return err
	}
	s.mirror(j, evs)
	s.jobs[j.ID] = j.Clone()
	s.order = append(s.order, j.ID)
	s.reg.Add("jobs.submitted", 1)
	s.publishGauges()
	return nil
}

// LookupCache returns the succeeded job holding the content-addressed
// result for key, or nil — the O(1) answer to a duplicate submission.
func (s *Store) LookupCache(key string) *Job {
	if key == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.cache[key]
	if !ok {
		return nil
	}
	j, ok := s.jobs[id]
	if !ok || j.State != StateSucceeded || j.Result == nil {
		delete(s.cache, key)
		return nil
	}
	return j.Clone()
}

// ErrUnknownJob and ErrJobActive classify Delete failures so the
// serving layer can map them to 404 / 409.
var (
	ErrUnknownJob = errors.New("unknown job")
	ErrJobActive  = errors.New("job is not terminal")
)

// Delete removes a terminal (succeeded or failed) job.  The deletion
// is WAL-logged before it is acknowledged, so it survives restarts and
// replay never resurrects the job.  Queued and running jobs cannot be
// deleted — cancel-by-delete would race the worker pool's claim; the
// caller must wait for a terminal state.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteLocked(id)
}

func (s *Store) deleteLocked(id string) error {
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("jobstore: %w: %s", ErrUnknownJob, id)
	}
	// A job holding a live lease is remote-running work: deleting (or
	// TTL-expiring) it out from under the worker would turn the
	// worker's result post into a resurrection race.  Leased jobs are
	// StateRunning so the terminal check already refuses them; this
	// guard keeps the invariant even if a future state ever detaches
	// lease lifetime from the running state.
	if s.leases[id] != nil {
		return fmt.Errorf("jobstore: %w: %s holds a live lease", ErrJobActive, id)
	}
	if !j.State.Terminal() {
		return fmt.Errorf("jobstore: %w: %s is %s", ErrJobActive, id, j.State)
	}
	if err := s.appendLocked(record{T: "delete", ID: id}); err != nil {
		return err
	}
	delete(s.jobs, id)
	delete(s.live, id)
	delete(s.ckpts, id)
	if j.CacheKey != "" && s.cache[j.CacheKey] == id {
		delete(s.cache, j.CacheKey)
	}
	s.dropOrder(id)
	s.reg.Add("jobs.deleted", 1)
	s.publishGauges()
	return nil
}

// ExpireBefore deletes every terminal job that finished before cutoff
// (the TTL sweep) and returns how many were removed.  Each deletion is
// WAL-logged; a failure stops the sweep early (the next tick retries).
func (s *Store) ExpireBefore(cutoff time.Time) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var expired []string
	for _, id := range s.order {
		j := s.jobs[id]
		// Never sweep a job holding a live lease, whatever its state —
		// the remote worker still owns it (see deleteLocked).
		if s.leases[id] != nil {
			continue
		}
		if j.State.Terminal() && !j.FinishedAt.IsZero() && j.FinishedAt.Before(cutoff) {
			expired = append(expired, id)
		}
	}
	n := 0
	for _, id := range expired {
		if err := s.deleteLocked(id); err != nil {
			return n, err
		}
		n++
	}
	if n > 0 {
		s.reg.Add("jobs.expired", uint64(n))
	}
	return n, nil
}

// AttachProgress registers the span registry of the job's current
// attempt; Get reads its live progress from it while the job is
// running.  The registration is in-memory only — DetachProgress (or
// any terminal transition) removes it, and restarts never resurrect
// it.
func (s *Store) AttachProgress(id string, reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live[id] = reg
}

// DetachProgress removes the job's attempt registry.
func (s *Store) DetachProgress(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.live, id)
}

// Note appends one lifecycle event — a pipeline stage start, a
// checkpoint resume, a cache hit on a succeeded job — to the job's
// trace (a zero At is stamped now).  The WAL append is deliberately
// unsynced: a write() survives kill -9 through the OS page cache,
// which is exactly the failure a stage event diagnoses (naming the
// stage a crash interrupted), while an fsync per pipeline stage would
// tax every job for diagnostics.  Power failure may lose the record —
// losing only the event, never durable state.
func (s *Store) Note(id string, ev TraceEvent) {
	if ev.At.IsZero() {
		ev.At = time.Now().UTC()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && s.wal != nil {
		s.noteLocked(j, ev)
	}
}

// noteLocked records one unsynced lifecycle event through a "trace"
// WAL record and mirrors it into the flight ring.  Callers hold s.mu
// and an open WAL.
func (s *Store) noteLocked(j *Job, ev TraceEvent) {
	evs := traceAppend(j, ev)
	if len(evs) == 0 {
		return
	}
	s.mirror(j, evs)
	payload, err := json.Marshal(record{T: "trace", ID: j.ID, TraceEvents: evs})
	if err == nil {
		err = s.wal.appendNoSync(payload)
	}
	if err != nil {
		s.logf("jobstore: job %s: %s record not persisted (%v); continuing", j.ID, ev.Event, err)
		return
	}
	s.appends++
}

// liveProgress builds the volatile Progress view of a running job from
// its attempt's newest open stage span, or nil — also while no stage
// span is open.  Callers hold s.mu, which orders before the registry's
// lock (the registry's OnStage hook runs outside it and may take s.mu).
func (s *Store) liveProgress(j *Job) *Progress {
	reg := s.live[j.ID]
	if j.State != StateRunning || reg == nil {
		return nil
	}
	stage, events, total, ok := reg.Stage()
	if !ok {
		return nil
	}
	return &Progress{Stage: stage, Events: events, Total: total}
}

// Get returns a copy of the job, or nil.  While the job is running and
// its attempt registry is attached, the copy carries the live Progress.
func (s *Store) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	c := j.Clone()
	c.Progress = s.liveProgress(j)
	if ls := s.leases[id]; ls != nil {
		c.Lease = &LeaseView{Worker: ls.Worker, Attempt: ls.Attempt, ExpiresAt: ls.ExpiresAt}
	}
	return c
}

// AppendHistory persists one request-history entry (an opaque blob
// owned by the serving layer) through the WAL.
func (s *Store) AppendHistory(blob json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(record{T: "hist", Hist: blob}); err != nil {
		return err
	}
	s.pushHistory(blob)
	return nil
}

func (s *Store) pushHistory(blob json.RawMessage) {
	if len(blob) == 0 {
		return
	}
	s.history = append(s.history, blob)
	if len(s.history) > s.opts.MaxHistory {
		s.history = s.history[len(s.history)-s.opts.MaxHistory:]
	}
}

// History returns the persisted request-history blobs, oldest first.
func (s *Store) History() []json.RawMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]json.RawMessage, len(s.history))
	copy(out, s.history)
	return out
}

// publishGauges pushes the per-state job gauges.  Callers hold s.mu.
func (s *Store) publishGauges() {
	counts := map[State]int{}
	for _, j := range s.jobs {
		counts[j.State]++
	}
	for _, st := range States() {
		s.reg.SetGauge("jobs."+string(st), int64(counts[st]))
	}
	s.reg.SetGauge("jobs.leases", int64(len(s.leases)))
}

// Recorder returns the store's flight recorder, which the daemon
// serving this store records through; nil for a nil store or when the
// recorder failed to open (every *flight.Recorder method is nil-safe).
func (s *Store) Recorder() *flight.Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Snapshot forces a compaction (tests, shutdown).
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// Close compacts and releases the WAL handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.compactLocked()
	if s.wal != nil {
		s.wal.close()
		s.wal = nil
	}
	return err
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }
