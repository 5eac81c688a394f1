package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Add("c", 3)
	r.Add("c", 4)
	if got := r.Counter("c").Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	r.SetGauge("g", 42)
	r.MaxGauge("g", 17) // lower: must not move
	if got := r.Gauge("g").Value(); got != 42 {
		t.Fatalf("gauge after lower Max = %d, want 42", got)
	}
	r.MaxGauge("g", 99)
	if got := r.Gauge("g").Value(); got != 99 {
		t.Fatalf("gauge after higher Max = %d, want 99", got)
	}
}

func TestDisabledRegistryRecordsNothing(t *testing.T) {
	r := NewRegistry()
	r.Add("c", 5)
	r.SetGauge("g", 5)
	r.Observe("h", 5)
	sp := r.StartSpan("stage")
	sp.AddEvents(10)
	if rec := sp.End(); rec.Name != "" {
		t.Fatalf("disabled span recorded %+v", rec)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Spans) != 0 {
		t.Fatalf("disabled registry captured metrics: %+v", s)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 62, 63}, {^uint64(0), 64},
	}
	var h Histogram
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.bucket {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.bucket)
		}
		h.Observe(c.v)
	}
	for _, c := range cases {
		lo, hi := BucketBounds(c.bucket)
		if c.v < lo || c.v > hi {
			t.Errorf("value %d outside BucketBounds(%d) = [%d, %d]", c.v, c.bucket, lo, hi)
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	// Bucket 2 received both 2 and 3.
	if h.Bucket(2) != 2 {
		t.Errorf("bucket 2 = %d, want 2", h.Bucket(2))
	}
	// Bounds are exact powers of two minus one.
	if lo, hi := BucketBounds(4); lo != 8 || hi != 15 {
		t.Errorf("BucketBounds(4) = [%d, %d], want [8, 15]", lo, hi)
	}
	if lo, hi := BucketBounds(64); lo != 1<<63 || hi != ^uint64(0) {
		t.Errorf("BucketBounds(64) = [%d, %d]", lo, hi)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines;
// run under -race it validates the synchronization story.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Add("shared.counter", 1)
				r.Observe("shared.hist", uint64(i))
				r.MaxGauge("shared.peak", int64(i))
				if i%100 == 0 {
					sp := r.StartSpan("stage")
					sp.AddEvents(1)
					sp.End()
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("shared.hist").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("shared.peak").Value(); got != perG-1 {
		t.Fatalf("peak gauge = %d, want %d", got, perG-1)
	}
}

// TestSnapshotDuringMetricCreation pins the race the first
// TestRegistryConcurrency version missed: Snapshot iterating the
// metric maps while other goroutines insert *new* names via first-use
// Counter/Gauge/Histogram lookups.  Run under -race (and without it,
// via the runtime's concurrent map iteration check) this fails if
// Snapshot ever reads the maps outside the registry lock.
func TestSnapshotDuringMetricCreation(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			suffix := string(rune('a' + i%26))
			r.Add("fresh.counter."+suffix+string(rune('a'+(i/26)%26)), 1)
			r.SetGauge("fresh.gauge."+suffix, int64(i))
			r.Observe("fresh.hist."+suffix, uint64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := r.Snapshot()
			if len(s.Counters) > 0 && s.Counters[0].Name == "" {
				t.Error("snapshot contains empty counter name")
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		_ = r.Snapshot()
	}
	close(done)
	wg.Wait()
}

// TestSpanConcurrentAddEventsEnd exercises AddEvents from several
// goroutines racing one End; under -race this validates the span's
// atomic event counter and close-once semantics.
func TestSpanConcurrentAddEventsEnd(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	sp := r.StartSpan("stage")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sp.AddEvents(1)
			}
		}()
	}
	wg.Wait()
	rec := sp.End()
	if rec.Events != 4000 {
		t.Fatalf("events = %d, want 4000", rec.Events)
	}
	// Racing Ends close the span exactly once: every further End is a
	// zero record and the registry holds a single span.
	var extra sync.WaitGroup
	sp2 := r.StartSpan("stage2")
	records := make([]SpanRecord, 4)
	for g := 0; g < 4; g++ {
		extra.Add(1)
		go func(g int) {
			defer extra.Done()
			sp2.AddEvents(1)
			records[g] = sp2.End()
		}(g)
	}
	extra.Wait()
	closed := 0
	for _, rec := range records {
		if rec.Name != "" {
			closed++
		}
	}
	if closed != 1 {
		t.Fatalf("%d Ends recorded the span, want exactly 1", closed)
	}
	if got := len(r.Spans()); got != 2 {
		t.Fatalf("registry holds %d spans, want 2", got)
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	outer := r.StartSpan("outer")
	inner := r.StartSpan("inner")
	innermost := r.StartSpan("innermost")
	innermost.AddEvents(100)
	innermost.End()
	inner.End()
	outerRec := outer.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// End order: innermost first; depths reflect nesting at start.
	want := []struct {
		name  string
		depth int
	}{{"innermost", 2}, {"inner", 1}, {"outer", 0}}
	for i, w := range want {
		if spans[i].Name != w.name || spans[i].Depth != w.depth {
			t.Errorf("span %d = %q depth %d, want %q depth %d",
				i, spans[i].Name, spans[i].Depth, w.name, w.depth)
		}
	}
	if spans[0].Events != 100 || spans[0].EventsPerSec <= 0 {
		t.Errorf("innermost events = %d rate %f, want 100 events and positive rate",
			spans[0].Events, spans[0].EventsPerSec)
	}
	if outerRec.Wall < spans[0].Wall {
		t.Errorf("outer wall %v shorter than innermost %v", outerRec.Wall, spans[0].Wall)
	}
	// Ending every span empties the active stack: a new span is depth 0.
	again := r.StartSpan("again")
	if rec := again.End(); rec.Depth != 0 {
		t.Errorf("post-nesting span depth = %d, want 0", rec.Depth)
	}
	// Double End is a no-op.
	if rec := innermost.End(); rec.Name != "" {
		t.Errorf("double End recorded %+v", rec)
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Add("a.counter", 12)
	r.SetGauge("b.gauge", -3)
	r.Observe("c.hist", 5)
	sp := r.StartSpan("stage1")
	sp.AddEvents(1000)
	time.Sleep(time.Millisecond)
	sp.End()

	text := r.Snapshot().Text()
	for _, want := range []string{"a.counter", "b.gauge", "c.hist", "stage1", "counters:", "spans:"} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot text missing %q:\n%s", want, text)
		}
	}

	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(round.Counters) != 1 || round.Counters[0].Value != 12 {
		t.Errorf("round-tripped counters = %+v", round.Counters)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Add("served.counter", 9)
	srv := r.Handler()

	// Default representation is the Prometheus text exposition.
	req, _ := http.NewRequest("GET", "/metrics", nil)
	rec := &responseRecorder{header: http.Header{}}
	srv.ServeHTTP(rec, req)
	if rec.status != 0 && rec.status != http.StatusOK {
		t.Fatalf("status = %d", rec.status)
	}
	if !strings.Contains(rec.body.String(), "polyprof_served_counter 9") {
		t.Fatalf("prometheus body missing counter: %s", rec.body.String())
	}
	if ct := rec.header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("prometheus content type = %q", ct)
	}

	// Accept: application/json (or ?format=json) selects the snapshot.
	for _, mk := range []func() *http.Request{
		func() *http.Request {
			req, _ := http.NewRequest("GET", "/metrics", nil)
			req.Header.Set("Accept", "application/json")
			return req
		},
		func() *http.Request {
			req, _ := http.NewRequest("GET", "/metrics?format=json", nil)
			return req
		},
		func() *http.Request {
			req, _ := http.NewRequest("GET", "/debug/vars", nil)
			return req
		},
	} {
		rec := &responseRecorder{header: http.Header{}}
		srv.ServeHTTP(rec, mk())
		var snap Snapshot
		if err := json.Unmarshal([]byte(rec.body.String()), &snap); err != nil {
			t.Fatalf("JSON body does not parse: %v\n%s", err, rec.body.String())
		}
		if len(snap.Counters) != 1 || snap.Counters[0].Name != "served.counter" {
			t.Fatalf("JSON snapshot counters = %+v", snap.Counters)
		}
	}
}

// responseRecorder is a minimal http.ResponseWriter for the handler
// test (avoiding the httptest dependency keeps the package stdlib-lean
// in spirit; net/http/httptest is stdlib but unneeded here).
type responseRecorder struct {
	header http.Header
	body   strings.Builder
	status int
}

func (r *responseRecorder) Header() http.Header { return r.header }
func (r *responseRecorder) WriteHeader(s int)   { r.status = s }
func (r *responseRecorder) Write(b []byte) (int, error) {
	return r.body.Write(b)
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatRate(36_700_000); got != "36.7M" {
		t.Errorf("FormatRate = %q", got)
	}
	if got := FormatRate(0); got != "-" {
		t.Errorf("FormatRate(0) = %q", got)
	}
	if got := FormatDuration(1230 * time.Microsecond); got != "1.23ms" {
		t.Errorf("FormatDuration = %q", got)
	}
}
