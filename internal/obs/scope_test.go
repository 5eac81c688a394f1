package obs

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestScopeZeroValueTargetsDefault(t *testing.T) {
	var sc Scope
	if sc.Registry() != Default {
		t.Fatalf("zero Scope registry = %p, want Default", sc.Registry())
	}
	// Default is disabled in tests: everything is a no-op.
	sc.Add("scope.zero.counter", 1)
	sp := sc.StartSpan("scope-zero")
	if rec := sp.End(); rec.Name != "" {
		t.Fatalf("disabled default recorded span %+v", rec)
	}
}

func TestScopeExplicitParenting(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	root := r.Scope().StartSpan("request")
	sc := r.Scope().WithSpan(root)

	// Children of the scope nest under the request root regardless of
	// what else is on the active stack.
	unrelated := r.StartSpan("unrelated")
	child := sc.StartSpan("stage-a")
	child.End()
	unrelated.End()
	root.End()

	byName := map[string]SpanRecord{}
	for _, rec := range r.Spans() {
		byName[rec.Name] = rec
	}
	rootRec := byName["request"]
	childRec := byName["stage-a"]
	if rootRec.ID == 0 {
		t.Fatalf("root span has no id: %+v", rootRec)
	}
	if childRec.Parent != rootRec.ID {
		t.Fatalf("child parent = %d, want root id %d", childRec.Parent, rootRec.ID)
	}
	if childRec.Depth != rootRec.Depth+1 {
		t.Fatalf("child depth = %d, want %d", childRec.Depth, rootRec.Depth+1)
	}
	// The unrelated stack span must not have adopted the child.
	if got := byName["unrelated"]; got.ID == childRec.Parent {
		t.Fatalf("child nested under the active stack, not the scope parent")
	}
}

func TestScopeIsolationBetweenRegistries(t *testing.T) {
	a := NewRegistry()
	a.SetEnabled(true)
	b := NewRegistry()
	b.SetEnabled(true)
	a.Scope().Add("iso.counter", 3)
	b.Scope().Add("iso.counter", 5)
	if got := a.Counter("iso.counter").Value(); got != 3 {
		t.Fatalf("registry a counter = %d, want 3", got)
	}
	if got := b.Counter("iso.counter").Value(); got != 5 {
		t.Fatalf("registry b counter = %d, want 5", got)
	}
}

func TestSpanFailStatus(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	sp := r.StartSpan("failing")
	sp.Fail(errors.New("boom"))
	rec := sp.End()
	if rec.Status != "error" || rec.Err != "boom" {
		t.Fatalf("record = %+v, want status=error err=boom", rec)
	}
	ok := r.StartSpan("fine")
	ok.Fail(nil) // ignored
	if rec := ok.End(); rec.Status != "ok" || rec.Err != "" {
		t.Fatalf("record = %+v, want status=ok", rec)
	}
	text := r.Snapshot().Text()
	if !strings.Contains(text, "ERROR: boom") {
		t.Fatalf("snapshot text missing error annotation:\n%s", text)
	}
}

func TestRegistryMerge(t *testing.T) {
	dst := NewRegistry()
	dst.SetEnabled(true)
	dst.Add("m.counter", 10)
	dst.SetGauge("m.peak", 7)
	dst.Observe("m.hist", 2)

	src := NewRegistry()
	src.SetEnabled(true)
	src.Add("m.counter", 5)
	src.Add("m.only", 1)
	src.SetGauge("m.peak", 9)
	src.Observe("m.hist", 100)
	sp := src.StartSpan("src-span")
	sp.End()

	dst.Merge(src)
	if got := dst.Counter("m.counter").Value(); got != 15 {
		t.Fatalf("merged counter = %d, want 15", got)
	}
	if got := dst.Counter("m.only").Value(); got != 1 {
		t.Fatalf("merged new counter = %d, want 1", got)
	}
	if got := dst.Gauge("m.peak").Value(); got != 9 {
		t.Fatalf("merged gauge = %d, want max 9", got)
	}
	h := dst.Histogram("m.hist")
	if h.Count() != 2 || h.Sum() != 102 {
		t.Fatalf("merged histogram count=%d sum=%d, want 2/102", h.Count(), h.Sum())
	}
	// Spans stay with their registry: the request ring owns them.
	if got := len(dst.Spans()); got != 0 {
		t.Fatalf("merge copied %d spans, want 0", got)
	}
	// Merging into a disabled registry is a no-op.
	off := NewRegistry()
	off.Merge(src)
	if got := off.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("disabled merge captured %+v", got.Counters)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	for i := 0; i < 90; i++ {
		r.Observe("q.hist", 1) // bucket [1,1]
	}
	for i := 0; i < 10; i++ {
		r.Observe("q.hist", 1000) // bucket [512,1023]
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	h := s.Histograms[0]
	if h.P50 != 1 || h.P90 != 1 {
		t.Fatalf("p50=%g p90=%g, want both 1", h.P50, h.P90)
	}
	// p99 lands in the [512,1023] bucket; the midpoint estimate is
	// 512 + 511/2.
	if h.P99 < 512 || h.P99 > 1023 {
		t.Fatalf("p99 = %g, want within [512,1023]", h.P99)
	}
	if got := h.Quantile(1); got != h.P99 {
		t.Fatalf("q1 = %g, want same bucket as p99 (%g)", got, h.P99)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Add("vm.runs", 2)
	r.SetGauge("ddg.shadow.words", 64)
	r.Observe("serve.request.wall_ns", 1)
	r.Observe("serve.request.wall_ns", 100)

	body := string(r.Snapshot().Prometheus())
	checks := []string{
		"# TYPE polyprof_vm_runs counter",
		"polyprof_vm_runs 2",
		"# TYPE polyprof_ddg_shadow_words gauge",
		"polyprof_ddg_shadow_words 64",
		"# TYPE polyprof_serve_request_wall_ns histogram",
		`polyprof_serve_request_wall_ns_bucket{le="+Inf"} 2`,
		"polyprof_serve_request_wall_ns_sum 101",
		"polyprof_serve_request_wall_ns_count 2",
		`polyprof_serve_request_wall_ns_quantile{q="0.5"}`,
		`polyprof_serve_request_wall_ns_quantile{q="0.99"}`,
	}
	for _, want := range checks {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	// Cumulative buckets: each le count is non-decreasing and the last
	// equals _count. Spot-check the le="1" bucket holds exactly 1.
	if !strings.Contains(body, `polyprof_serve_request_wall_ns_bucket{le="1"} 1`) {
		t.Errorf("exposition missing cumulative le=1 bucket:\n%s", body)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	root := r.Scope().StartSpan("request:test")
	sc := r.Scope().WithSpan(root)
	inner := sc.StartSpan("pass1-structure")
	inner.AddEvents(42)
	time.Sleep(time.Millisecond)
	inner.End()
	failed := sc.StartSpan("pass2-ddg")
	failed.Fail(errors.New("trap"))
	failed.End()
	root.End()

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteChromeTrace(path, r.Spans()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc TraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not round-trip: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	complete := map[string]TraceEvent{}
	meta := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete[ev.Name] = ev
		case "M":
			meta++
		}
	}
	if meta == 0 {
		t.Fatal("no metadata events emitted")
	}
	for _, name := range []string{"request:test", "pass1-structure", "pass2-ddg"} {
		if _, ok := complete[name]; !ok {
			t.Fatalf("no complete event for %q; trace:\n%s", name, data)
		}
	}
	if ev := complete["pass1-structure"]; ev.Dur <= 0 {
		t.Fatalf("pass1 event has no duration: %+v", ev)
	}
	if ev := complete["pass2-ddg"]; ev.Args["status"] != "error" {
		t.Fatalf("failed span status = %v, want error", ev.Args["status"])
	}
	// Empty input still produces a valid document.
	data, err = ChromeTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("empty trace does not parse: %v", err)
	}
}

func TestMetricsServerServeClose(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

// TestRegistryStage: stage spans are the direct children of a root
// span.  OnStage announces exactly those, from outside the registry
// lock (a hook calling Stage must not deadlock), and Stage reads the
// newest open one with its live events and a total that is never
// observed missing.
func TestRegistryStage(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	var announced, seen []string
	r.OnStage(func(stage string) {
		announced = append(announced, stage)
		name, _, _, _ := r.Stage()
		seen = append(seen, name)
	})
	if _, _, _, ok := r.Stage(); ok {
		t.Fatal("stage reported before any span")
	}

	// A concurrent reader polls Stage the way GET /v1/jobs/{id} does.
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-done:
				return
			default:
			}
			if name, _, total, ok := r.Stage(); ok && name == "pass2-ddg" && total != 100 {
				t.Errorf("pass2-ddg read with total %d, want 100", total)
			}
		}
	}()
	go func() {
		defer close(done)
		root := r.Scope().StartSpan("job:test#1")
		sc := r.Scope().WithSpan(root)
		pass1 := sc.StartSpan("pass1-structure")
		pass1.SetEvents(7)
		inner := sc.WithSpan(pass1).StartSpan("inner")
		implicit := r.StartSpan("implicit") // nests under inner
		if name, events, total, ok := r.Stage(); !ok || name != "pass1-structure" || events != 7 || total != 0 {
			t.Errorf("Stage() = %q %d %d %v, want pass1-structure 7 0", name, events, total, ok)
		}
		implicit.End()
		inner.End()
		pass1.End()
		if name, _, _, ok := r.Stage(); ok {
			t.Errorf("Stage() = %q between stages", name)
		}

		shards := sc.StartSpan("ddg-shards")
		pass2 := sc.StartSpanTotal("pass2-ddg", 100)
		pass2.SetEvents(40)
		if name, events, total, ok := r.Stage(); !ok || name != "pass2-ddg" || events != 40 || total != 100 {
			t.Errorf("Stage() = %q %d %d %v, want pass2-ddg 40 100", name, events, total, ok)
		}
		pass2.End()
		shards.AddEvents(3)
		if name, events, _, ok := r.Stage(); !ok || name != "ddg-shards" || events != 3 {
			t.Errorf("Stage() = %q %d %v, want the older open ddg-shards with 3 events", name, events, ok)
		}
		shards.End()
		root.End()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stage hook deadlocked against the registry lock")
	}
	<-polled

	want := []string{"pass1-structure", "ddg-shards", "pass2-ddg"}
	if !slices.Equal(announced, want) {
		t.Fatalf("OnStage announced %v, want %v", announced, want)
	}
	if !slices.Equal(seen, want) {
		t.Fatalf("Stage() inside the hook saw %v, want %v", seen, want)
	}
	for _, rec := range r.Spans() {
		if rec.Name == "pass1-structure" && rec.Events != 7 {
			t.Fatalf("pass1 record events = %d, want the live count 7", rec.Events)
		}
	}

	// SetEvents on a nil span (a root Scope's parent) or a disabled
	// registry's shared no-op span is a no-op; a disabled registry
	// announces nothing.
	NewRegistry().Scope().Span().SetEvents(1)
	off := NewRegistry()
	off.OnStage(func(stage string) { t.Fatalf("disabled registry announced %q", stage) })
	root := off.Scope().StartSpan("job")
	sp := off.Scope().WithSpan(root).StartSpan("pass1-structure")
	sp.SetEvents(5)
	if rec := sp.End(); rec.Events != 0 {
		t.Fatalf("no-op span recorded %d events", rec.Events)
	}
	if noopSpan.events.Load() != 0 {
		t.Fatal("SetEvents wrote into the shared no-op span")
	}
}
