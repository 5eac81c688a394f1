package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
)

// TestReadyzGate: a DeferOpen server answers /healthz but holds
// everything else behind 503 until Open finishes WAL replay and
// starts the pool; /readyz flips to 200 exactly then.
func TestReadyzGate(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir(), Registry: obs.NewRegistry(), DeferOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while starting = %d, want 200 (liveness != readiness)", resp.StatusCode)
	}
	resp, body := get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while starting = %d: %s", resp.StatusCode, body)
	}
	var rz struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &rz); err != nil || rz.Status != "starting" {
		t.Fatalf("readyz body = %s (err %v)", body, err)
	}

	// Work is rejected with a Retry-After while replay is in flight.
	resp, _ = postJob(t, ts, "workload=example1", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job submit while starting = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("not-ready 503 missing Retry-After")
	}
	if resp, _ := postProfile(t, ts, "workload=example1"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("profile while starting = %d, want 503", resp.StatusCode)
	}

	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after open = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rz); err != nil || rz.Status != "ready" {
		t.Fatalf("readyz body after open = %s (err %v)", body, err)
	}
	// Open is idempotent.
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}

	resp, _ = postJob(t, ts, "workload=example1", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit after open = %d", resp.StatusCode)
	}
}

// TestReadyzPolledDuringOpen: /readyz answers 503 through the full
// middleware while Open replays the store on another goroutine.  Those
// starting-up 503s read nothing Open writes (run with -race) and leave
// no serve-5xx bundle; polling ends on 200.
func TestReadyzPolledDuringOpen(t *testing.T) {
	dataDir := t.TempDir()
	s, err := New(Options{DataDir: dataDir, Registry: obs.NewRegistry(), DeferOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var starting atomic.Int64
	firstStarting := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			resp, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				done <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				done <- nil
				return
			case http.StatusServiceUnavailable:
				if starting.Add(1) == 1 {
					close(firstStarting)
				}
			default:
				done <- &statusError{resp.StatusCode}
				return
			}
		}
	}()
	<-firstStarting
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	infos, err := flight.List(filepath.Join(dataDir, jobstore.FlightDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Reason == "serve-5xx" {
			t.Fatalf("starting-up /readyz (%d polls answered 503) wrote bundle %+v", starting.Load(), info)
		}
	}
}

type statusError struct{ code int }

func (e *statusError) Error() string { return http.StatusText(e.code) }

// TestReadyzImmediateWhenNotDeferred: the default construction path
// (no DeferOpen) comes up ready.
func TestReadyzImmediateWhenNotDeferred(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	// Stateless servers (no data dir) are ready too.
	_, ts2 := newTestServer(t, Options{})
	if resp, _ := get(t, ts2, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("stateless readyz = %d, want 200", resp.StatusCode)
	}
}
