package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
	"polyprof/internal/serve"
)

// daemonWorkers is the job worker count of the daemon: the runner has
// two CPUs.
const daemonWorkers = 2

// daemon is an in-process `polyprof serve -data-dir` with daemonWorkers
// job workers behind a loopback listener, and a client that opens at
// most two connections.
type daemon struct {
	srv    *serve.Server
	reg    *obs.Registry
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
}

// openDaemon starts a daemon on a fresh data directory under root.
func openDaemon(root string) (*daemon, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "serve-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Options{Registry: reg, DataDir: dir, Workers: daemonWorkers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		flight.Default.Disable()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		reg:    reg,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		dir:    dir,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener and the worker pool, disables the flight
// recorder the daemon enabled, and removes the data directory.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.client.CloseIdleConnections()
	err = errors.Join(err, d.srv.Close())
	flight.Default.Disable()
	return errors.Join(err, os.RemoveAll(d.dir))
}

// call sends one request under a span named for its route and returns
// the status and the body.
func (d *daemon) call(sc obs.Scope, method, path string, body []byte) (int, []byte, error) {
	route, _, _ := strings.Cut(path, "?")
	if strings.HasPrefix(route, "/v1/jobs/") {
		route = "/v1/jobs/{id}"
	}
	sp := sc.StartSpan("http:" + method + " " + route)
	defer sp.End()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		sp.Fail(err)
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	sp.Fail(err)
	return resp.StatusCode, data, err
}

// getJSON GETs path and decodes a 200 response into v.
func (d *daemon) getJSON(sc obs.Scope, path string, v any) error {
	code, body, err := d.call(sc, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// warmup submits one job and waits for it: the daemon's first job pays
// for connection set-up and the pool's first dispatch.
func (d *daemon) warmup(e *env, prog string) error {
	var sc obs.Scope
	code, body, err := d.call(sc, http.MethodPost, "/v1/jobs?nocache=1", e.bodies[prog])
	if err != nil {
		return fmt.Errorf("warm-up submit: %w", err)
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("warm-up submit: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	var sum jobstore.JobSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		return fmt.Errorf("warm-up submit: %w", err)
	}
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		var job jobstore.Job
		if err := d.getJSON(sc, "/v1/jobs/"+sum.ID, &job); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		if job.State == jobstore.StateSucceeded && job.Result != nil {
			e.checkReportJSON(prog, "warm-up job", job.Result.Report)
			return nil
		}
		if job.State.Terminal() {
			return fmt.Errorf("warm-up job %s ended %s", job.ID, job.State)
		}
	}
	return errors.New("warm-up job did not finish within a minute")
}

func (e *env) checkReportJSON(prog, what string, js []byte) {
	d, err := reportDigest(js)
	switch {
	case err != nil:
		e.wrongOutput(prog, what, err.Error())
	case d != e.ref[prog].Report:
		e.wrongOutput(prog, what, "report JSON differs from the reference")
	}
}

// loopStats is what one open loop measured.
type loopStats struct {
	attempted, failed, overLimit int

	latency   []float64 // ms from due to finished_at, executed jobs
	hitLat    []float64 // ms from due to the cached answer, cache hits
	submitLat []float64 // ms per POST /v1/jobs
	lag       []float64 // ms the generator sent each job after it was due
	queueWait []float64 // ms finished - submitted - run wall, executed jobs
	run       []float64 // ms run wall, executed jobs
	instrs    uint64    // dynamic instructions profiled by executed jobs
	runWall   time.Duration
	makespan  time.Duration // start of the loop to the last terminal state

	cacheHits uint64  // growth of the daemon's jobs.cache_hits counter
	fsyncP50  float64 // ms, median of the daemon's WAL fsync histogram
}

// pollEvery is the poller's period.  Latency does not depend on it: it
// runs to the daemon's own finished_at timestamp.
const pollEvery = 50 * time.Millisecond

// drainTimeout bounds how long the loop waits, after the last
// submission, for the backlog to clear; jobs still open then failed.
const drainTimeout = 60 * time.Second

// openLoop submits the scheduled jobs on time from this goroutine while
// one poller goroutine watches the backlog, then collects every job's
// outcome and checks its report.  Latency runs from the time a job was
// due, so a stalled submitter charges its wait to the jobs behind it.
func (d *daemon) openLoop(e *env, slots []slot) (*loopStats, error) {
	var sc obs.Scope // the disabled default registry: spans are no-ops
	if e.tr != nil {
		root := e.tr.sc.StartSpan("openloop")
		defer root.End()
		sc = e.tr.sc.WithSpan(root)
	}
	hits0 := d.reg.Counter("jobs.cache_hits").Value()

	type sub struct {
		due      time.Time
		id       string
		failed   bool
		answered time.Time // cache hits: when the cached report arrived
		report   []byte    // cache hits: the report that answered
	}
	subs := make([]sub, len(slots))
	st := &loopStats{attempted: len(slots)}
	e.attempted += len(slots)

	start := time.Now()
	done := make(chan struct{})
	polled := make(chan error, 1)
	lastDue := start
	if n := len(slots); n > 0 {
		lastDue = start.Add(slots[n-1].Due)
	}
	go func() { polled <- d.poll(sc, done, lastDue.Add(drainTimeout)) }()
	for i, s := range slots {
		su := &subs[i]
		su.due = start.Add(s.Due)
		time.Sleep(time.Until(su.due))
		sent := time.Now()
		st.lag = append(st.lag, ms(sent.Sub(su.due)))
		path := "/v1/jobs"
		if !s.Cacheable {
			path += "?nocache=1"
		}
		code, body, err := d.call(sc, http.MethodPost, path, e.bodies[s.Prog])
		now := time.Now()
		st.submitLat = append(st.submitLat, ms(now.Sub(sent)))
		switch {
		case err != nil:
			su.failed = true
			e.opFailed("submit "+s.Prog, err)
		case code == http.StatusOK: // answered from the result cache
			var hit struct {
				Cached bool            `json:"cached"`
				Report json.RawMessage `json:"report"`
			}
			if err := json.Unmarshal(body, &hit); err != nil || !hit.Cached {
				su.failed = true
				e.opFailed("submit "+s.Prog, fmt.Errorf("unexpected 200 response: %v", err))
				continue
			}
			su.answered, su.report = now, hit.Report
		case code == http.StatusAccepted:
			var sum jobstore.JobSummary
			if err := json.Unmarshal(body, &sum); err != nil {
				su.failed = true
				e.opFailed("submit "+s.Prog, err)
				continue
			}
			su.id = sum.ID
		default:
			su.failed = true
			e.opFailed("submit "+s.Prog, fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body)))
		}
	}
	close(done)
	if err := <-polled; err != nil {
		return nil, err
	}

	end := start
	for i, su := range subs {
		prog := slots[i].Prog
		var lat time.Duration
		switch {
		case su.failed:
		case su.id == "":
			lat = su.answered.Sub(su.due)
			st.hitLat = append(st.hitLat, ms(lat))
			e.checkReportJSON(prog, "cache hit", su.report)
			end = maxTime(end, su.answered)
		default:
			var job jobstore.Job
			if err := d.getJSON(sc, "/v1/jobs/"+su.id, &job); err != nil {
				su.failed = true
				e.opFailed("job "+su.id+" ("+prog+")", err)
				break
			}
			if job.State != jobstore.StateSucceeded || job.Result == nil {
				su.failed = true
				e.opFailed("job "+su.id+" ("+prog+")", fmt.Errorf("state %q", job.State))
				break
			}
			e.checkReportJSON(prog, "job", job.Result.Report)
			sum := job.Summary()
			lat = sum.Finished.Sub(su.due)
			run := time.Duration(sum.WallNS)
			st.run = append(st.run, ms(run))
			st.queueWait = append(st.queueWait, ms(sum.Finished.Sub(sum.Submitted)-run))
			st.instrs += job.Result.Ops
			st.runWall += run
			end = maxTime(end, sum.Finished)
		}
		if su.failed {
			st.failed++
			st.overLimit++
			continue
		}
		if su.id != "" {
			st.latency = append(st.latency, ms(lat))
		}
		if lat > overLimit {
			st.overLimit++
		}
	}
	st.makespan = end.Sub(start)
	st.cacheHits = d.reg.Counter("jobs.cache_hits").Value() - hits0
	for _, h := range d.reg.Snapshot().Histograms {
		if h.Name == "jobstore.wal.fsync_ns" {
			st.fsyncP50 = h.Quantile(0.5) / 1e6
		}
	}
	return st, nil
}

// poll watches the backlog until the submitter is done and nothing is
// queued or running, or until the deadline; jobs still open then are
// counted failed by the caller.
func (d *daemon) poll(sc obs.Scope, done <-chan struct{}, deadline time.Time) error {
	for {
		var finished bool
		select {
		case <-done:
			finished = true
		default:
		}
		backlog := 0
		for _, state := range []jobstore.State{jobstore.StateQueued, jobstore.StateRunning} {
			var page struct {
				Total int `json:"total"`
			}
			if err := d.getJSON(sc, "/v1/jobs?limit=1&state="+string(state), &page); err != nil {
				return err
			}
			backlog += page.Total
		}
		if finished && backlog == 0 || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(pollEvery)
	}
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
