package jobstore

import (
	"encoding/json"
	"fmt"
	"time"
)

// JobCheckpoint is the latest committed streaming epoch checkpoint of
// one job: the serialized core.Checkpoint plus enough metadata to
// answer "which epoch does a resumed attempt start from" without
// decoding the blob.  At most one is live per job (latest-wins); it is
// WAL-persisted, snapshot-carried, and deleted on the job's terminal
// transition.
type JobCheckpoint struct {
	JobID string `json:"job_id"`
	// Attempt is the attempt that committed the checkpoint.  Informative
	// only: the epoch grid is a property of the job spec, so any later
	// attempt may resume from it regardless of attempt number.
	Epoch   uint64    `json:"epoch"`
	Events  uint64    `json:"events"`
	Attempt int       `json:"attempt,omitempty"`
	At      time.Time `json:"at"`
	// Data is the serialized core.Checkpoint (opaque to the store).
	Data []byte `json:"data"`
}

// SaveLeasedCheckpoint commits a streaming epoch checkpoint for the
// attempt holding the job's lease — a local slot or a remote worker.
// When it returns nil the record is fsynced: the epoch is committed,
// and a SIGKILL'd or lease-reclaimed attempt will resume from it.  A
// holder whose lease was reclaimed (or whose job already completed
// elsewhere) gets ErrFenced and must abandon the attempt — its stale
// epochs never overwrite the current owner's.  A checkpoint too large
// for one WAL record is skipped with a warning (resume then falls back
// to the previous committed epoch — strictly a performance loss, never
// a correctness one).
func (s *Store) SaveLeasedCheckpoint(jobID string, token uint64, ck *JobCheckpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.fenceCheckLocked(jobID, token)
	if err != nil {
		return err
	}
	ck.JobID = jobID
	if ck.At.IsZero() {
		ck.At = time.Now().UTC()
	}
	rec := record{T: "ckpt", Ckpt: ck}
	if payload, err := json.Marshal(rec); err != nil {
		return err
	} else if len(payload) > MaxWALRecord {
		s.logf("jobstore: job %s: epoch-%d checkpoint of %d bytes exceeds the %d-byte WAL record limit; skipping (resume falls back to epoch %d)",
			ck.JobID, ck.Epoch, len(payload), MaxWALRecord, s.ckptEpochLocked(ck.JobID))
		s.reg.Add("jobstore.checkpoint.oversize", 1)
		return nil
	}
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	s.ckpts[ck.JobID] = ck
	s.reg.Add("jobstore.checkpoints", 1)
	// Mark the commit in the lifecycle trace (unsynced, like stage
	// events — the fsynced ckpt record above is the durable truth), so
	// ?trace=1 shows which epochs a crashed attempt had banked.
	s.noteLocked(j, TraceEvent{
		At: ck.At, Event: TraceCheckpoint, Attempt: ck.Attempt,
		Detail: fmt.Sprintf("committed epoch %d (%d events, %d bytes)", ck.Epoch, ck.Events, len(ck.Data)),
	})
	return nil
}

func (s *Store) ckptEpochLocked(id string) uint64 {
	if ck := s.ckpts[id]; ck != nil {
		return ck.Epoch
	}
	return 0
}

// LoadCheckpoint returns the job's latest committed checkpoint, or nil
// when the job has none (never streamed, already terminal, or no epoch
// committed yet — the attempt then simply starts from event zero).
func (s *Store) LoadCheckpoint(id string) *JobCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck := s.ckpts[id]
	if ck == nil {
		return nil
	}
	c := *ck
	c.Data = append([]byte(nil), ck.Data...)
	return &c
}

// ListPage returns one page of job summaries, newest submission first,
// optionally filtered by state ("" for all), plus the total number of
// matching jobs (for pagination headers).  offset/limit follow the
// usual convention; limit <= 0 means no cap.
func (s *Store) ListPage(state State, offset, limit int) ([]JobSummary, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobSummary
	total := 0
	for i := len(s.order) - 1; i >= 0; i-- {
		j := s.jobs[s.order[i]]
		if state != "" && j.State != state {
			continue
		}
		total++
		if total <= offset {
			continue
		}
		if limit > 0 && len(out) >= limit {
			continue
		}
		out = append(out, j.Summary())
	}
	return out, total
}
