package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"polyprof/internal/jobexec"
	"polyprof/internal/jobstore"
)

// storeCheckpoints backs jobexec's CheckpointStore with the daemon's
// job store for a local slot's attempt: Save is a WAL-committed
// (fsynced) checkpoint record under the slot's lease, Load the latest
// committed one.  Remote workers commit through the coordinator's
// checkpoint endpoint, under their own leases.
type storeCheckpoints struct {
	store *jobstore.Store
	lease *jobstore.Lease
}

func (c storeCheckpoints) Save(epoch, events uint64, data []byte) error {
	return c.store.SaveLeasedCheckpoint(c.lease.JobID, c.lease.Token, &jobstore.JobCheckpoint{
		Epoch: epoch, Events: events, Attempt: c.lease.Attempt, Data: data,
	})
}

func (c storeCheckpoints) Load() ([]byte, bool) {
	ck := c.store.LoadCheckpoint(c.lease.JobID)
	if ck == nil {
		return nil, false
	}
	return ck.Data, true
}

// streamJobPollInterval is how often an SSE subscriber re-checks the
// store for the job's terminal transition.  Polling (rather than a
// completion hook) also catches jobs finished by remote lease-holding
// workers, whose results arrive over HTTP.
const streamJobPollInterval = 150 * time.Millisecond

// streamHub fans per-epoch provisional reports out to the SSE
// subscribers of GET /v1/jobs/{id}?stream=1.  It retains only the
// latest provisional per running job (epoch N's report supersedes
// N-1's — the dependence set only grows), replayed to late subscribers
// so they see the current state immediately.
type streamHub struct {
	mu   sync.Mutex
	subs map[string]map[chan jobexec.Provisional]struct{}
	last map[string]*jobexec.Provisional
}

func newStreamHub() *streamHub {
	return &streamHub{
		subs: make(map[string]map[chan jobexec.Provisional]struct{}),
		last: make(map[string]*jobexec.Provisional),
	}
}

// publish records the job's newest provisional and offers it to every
// subscriber.  A subscriber too slow to drain its buffer is skipped,
// not blocked on: it will catch up at the next epoch (or the terminal
// poll), and the profiling attempt never stalls on a reader.
func (h *streamHub) publish(id string, p jobexec.Provisional) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.last[id] = &p
	for ch := range h.subs[id] {
		select {
		case ch <- p:
		default:
		}
	}
}

// subscribe registers a new subscriber and returns its channel, the
// latest provisional to replay (nil if none yet), and the
// unsubscribe func.
func (h *streamHub) subscribe(id string) (chan jobexec.Provisional, *jobexec.Provisional, func()) {
	ch := make(chan jobexec.Provisional, 8)
	h.mu.Lock()
	if h.subs[id] == nil {
		h.subs[id] = make(map[chan jobexec.Provisional]struct{})
	}
	h.subs[id][ch] = struct{}{}
	last := h.last[id]
	h.mu.Unlock()
	return ch, last, func() {
		h.mu.Lock()
		delete(h.subs[id], ch)
		if len(h.subs[id]) == 0 {
			delete(h.subs, id)
		}
		h.mu.Unlock()
	}
}

// clear drops the job's retained provisional (called when the job goes
// terminal — the persisted final report supersedes it).
func (h *streamHub) clear(id string) {
	h.mu.Lock()
	delete(h.last, id)
	h.mu.Unlock()
}

// streamJob serves GET /v1/jobs/{id}?stream=1: a Server-Sent-Events
// stream of the job's live progress.  Events, in order:
//
//	event: job           the job summary at subscribe time
//	event: provisional   {"epoch":N,"events":E,"report":{...}} per epoch
//	event: done          terminal state + final report, then EOF
//
// Each provisional report is sound and monotone — it may only gain
// dependences in later epochs — so a client can act on it immediately.
// A job that is already terminal answers with job + done.  Buffered
// (non-streaming) jobs produce no provisionals; the stream still ends
// with their done event.
func (s *Server) streamJob(w http.ResponseWriter, req *http.Request, job *jobstore.Job) {
	ch, last, unsubscribe := s.streams.subscribe(job.ID)
	defer unsubscribe()

	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}

	if !send("job", job.Summary()) {
		return
	}
	lastEpoch := uint64(0)
	if last != nil {
		if !send("provisional", *last) {
			return
		}
		lastEpoch = last.Epoch
	}

	tick := time.NewTicker(streamJobPollInterval)
	defer tick.Stop()
	for {
		select {
		case <-req.Context().Done():
			return
		case p := <-ch:
			// A retried attempt replays the epoch grid from its resume
			// point; suppress re-sent epochs so subscribers see a monotone
			// sequence.
			if p.Epoch <= lastEpoch {
				continue
			}
			lastEpoch = p.Epoch
			if !send("provisional", p) {
				return
			}
		case <-tick.C:
			cur := s.store.Get(job.ID)
			if cur == nil {
				send("done", map[string]any{"state": "deleted"})
				return
			}
			if !cur.State.Terminal() {
				continue
			}
			// Drain provisionals that raced the terminal transition, then
			// close with the persisted final result.
			for drained := false; !drained; {
				select {
				case p := <-ch:
					if p.Epoch > lastEpoch {
						lastEpoch = p.Epoch
						if !send("provisional", p) {
							return
						}
					}
				default:
					drained = true
				}
			}
			body := map[string]any{"state": cur.State}
			if cur.Result != nil {
				body["status"] = cur.Result.Status
				body["report"] = cur.Result.Report
			}
			send("done", body)
			return
		}
	}
}
