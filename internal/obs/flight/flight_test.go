package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polyprof/internal/obs"
)

func newTestRecorder(t *testing.T, opts Options) (*Recorder, string) {
	t.Helper()
	dir := t.TempDir()
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r, dir
}

func TestDisabledRecorderIsInert(t *testing.T) {
	for _, r := range []*Recorder{nil, {}} {
		r.LogEvent(Event{Kind: "span", Name: "x", Detail: "y"})
		r.LogSpans("req-1", []obs.SpanRecord{{Name: "pass1-structure"}})
		id, err := r.Trigger("anything", TriggerInfo{Detail: "ignored"})
		if err != nil || id != "" {
			t.Fatalf("Trigger on %#v = (%q, %v), want no-op", r, id, err)
		}
		if r.Dir() != "" {
			t.Fatalf("inert recorder has bundle dir %q", r.Dir())
		}
	}
}

// TestOpenStartsEmptyRing: two recorders on the same bundle directory
// (a daemon and its restart, or two daemons in one process) never see
// each other's events.
func TestOpenStartsEmptyRing(t *testing.T) {
	first, dir := newTestRecorder(t, Options{Registry: obs.NewRegistry()})
	first.LogEvent(Event{Kind: "job", Name: "first"})
	second, err := Open(dir, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	second.LogSpans("req-2", []obs.SpanRecord{{Name: "pass2-ddg", Start: time.Now(), Wall: time.Millisecond, Events: 9}})
	id, err := second.Trigger("probe", TriggerInfo{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || b.Events[0].Kind != "span" || b.Events[0].Trace != "req-2" || b.Events[0].Detail != "9 events" {
		t.Fatalf("second recorder's bundle events = %+v, want only its own span", b.Events)
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	r, _ := newTestRecorder(t, Options{RingSize: 4, Registry: obs.NewRegistry()})
	for i := 0; i < 10; i++ {
		r.LogEvent(Event{Kind: "job", Name: fmt.Sprintf("ev-%d", i)})
	}
	r.mu.Lock()
	evs := r.eventsLocked()
	r.mu.Unlock()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := fmt.Sprintf("ev-%d", 6+i)
		if ev.Name != want {
			t.Fatalf("ring[%d] = %s, want %s (oldest first)", i, ev.Name, want)
		}
	}
}

func TestTriggerWritesReadableBundle(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	reg.Add("test.counter", 7)
	r, dir := newTestRecorder(t, Options{RingSize: 8, Registry: reg})

	r.LogEvent(Event{Kind: "stage", Name: "pass2-ddg", Trace: "req-1", Detail: "job j-1"})
	id, err := r.Trigger("stage-panic", TriggerInfo{
		Trace: "req-1", Job: "j-1", Stage: "pass2-ddg",
		Detail: "boom", Extra: map[string]int{"attempt": 2},
	})
	if err != nil || id == "" {
		t.Fatalf("Trigger = (%q, %v)", id, err)
	}

	b, err := ReadBundle(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "stage-panic" || b.Trace != "req-1" || b.Job != "j-1" || b.Stage != "pass2-ddg" {
		t.Fatalf("bundle header = %+v", b)
	}
	if len(b.Events) != 1 || b.Events[0].Name != "pass2-ddg" {
		t.Fatalf("bundle events = %+v, want the ring contents", b.Events)
	}
	if b.Metrics == nil {
		t.Fatal("bundle without metrics snapshot")
	}
	if !strings.Contains(string(b.Extra), `"attempt": 2`) && !strings.Contains(string(b.Extra), `"attempt":2`) {
		t.Fatalf("bundle extra = %s", b.Extra)
	}
	if b.Goroutines == "" || !strings.Contains(b.Goroutines, "goroutine profile") {
		t.Fatal("bundle without goroutine profile")
	}
	if b.Meta.Go == "" || b.Meta.PID == 0 {
		t.Fatalf("bundle meta = %+v", b.Meta)
	}
	if got := reg.Counter("flight.bundles").Value(); got != 1 {
		t.Fatalf("flight.bundles = %d, want 1", got)
	}

	// The trigger itself became ring history.
	r.mu.Lock()
	evs := r.eventsLocked()
	r.mu.Unlock()
	if last := evs[len(evs)-1]; last.Kind != "trigger" || last.Name != "stage-panic" {
		t.Fatalf("last ring event = %+v, want the trigger", last)
	}

	// Render produces a non-empty incident report naming the reason.
	text := Render(b)
	if !strings.Contains(text, "stage-panic") || !strings.Contains(text, "pass2-ddg") {
		t.Fatalf("Render missing incident facts:\n%s", text)
	}
	infos, err := List(dir)
	if err != nil || len(infos) != 1 {
		t.Fatalf("List = (%v, %v)", infos, err)
	}
	if RenderList(infos) == "" {
		t.Fatal("RenderList empty")
	}
}

// TestBundleEventsOldestFirst: spans logged when their attempt ends
// carry their own end times, earlier than events logged meanwhile;
// the bundle still lists the frozen ring in time order.
func TestBundleEventsOldestFirst(t *testing.T) {
	r, dir := newTestRecorder(t, Options{RingSize: 8})
	t0 := time.Now().Add(-time.Second)
	r.LogEvent(Event{At: t0.Add(300 * time.Millisecond), Kind: "job", Name: "complete"})
	r.LogSpans("req-1", []obs.SpanRecord{
		{Name: "pass1", Start: t0, Wall: 100 * time.Millisecond},
		{Name: "pass2", Start: t0.Add(100 * time.Millisecond), Wall: 100 * time.Millisecond},
	})
	id, err := r.Trigger("stage-panic", TriggerInfo{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range b.Events {
		names = append(names, ev.Name)
	}
	if got := strings.Join(names, ","); got != "pass1,pass2,complete" {
		t.Fatalf("bundle events = %s, want pass1,pass2,complete", got)
	}
}

func TestTriggerDedupe(t *testing.T) {
	r, dir := newTestRecorder(t, Options{Registry: obs.NewRegistry()})
	if id, _ := r.Trigger("slow-job", TriggerInfo{Job: "j-1", Detail: "first"}); id == "" {
		t.Fatal("first trigger suppressed")
	}
	if id, _ := r.Trigger("slow-job", TriggerInfo{Job: "j-1", Detail: "repeat"}); id != "" {
		t.Fatal("repeat trigger for the same (reason, job) not deduplicated")
	}
	// A different job is a different anomaly.
	if id, _ := r.Trigger("slow-job", TriggerInfo{Job: "j-2", Detail: "other"}); id == "" {
		t.Fatal("distinct job deduplicated")
	}
	// Triggers without trace/job IDs are never deduplicated.
	if id, _ := r.Trigger("stage-panic", TriggerInfo{Stage: "x"}); id == "" {
		t.Fatal("bare trigger suppressed")
	}
	if id, _ := r.Trigger("stage-panic", TriggerInfo{Stage: "x"}); id == "" {
		t.Fatal("second bare trigger suppressed")
	}
	infos, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("bundles on disk = %d, want 4", len(infos))
	}
}

func TestBundleGC(t *testing.T) {
	r, dir := newTestRecorder(t, Options{MaxBundles: 3, Registry: obs.NewRegistry()})
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := r.Trigger("stage-panic", TriggerInfo{Detail: fmt.Sprintf("n%d", i)})
		if err != nil || id == "" {
			t.Fatalf("trigger %d = (%q, %v)", i, id, err)
		}
		ids = append(ids, id)
	}
	infos, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("bundles after gc = %d, want MaxBundles=3", len(infos))
	}
	// Newest survive; List is newest-first.
	if infos[0].ID != ids[5] || infos[2].ID != ids[3] {
		t.Fatalf("gc kept %v, want the newest three of %v", infos, ids)
	}
}

func TestBundleGCByBytes(t *testing.T) {
	r, dir := newTestRecorder(t, Options{MaxBytes: 1, Registry: obs.NewRegistry()})
	for i := 0; i < 3; i++ {
		if id, err := r.Trigger("stage-panic", TriggerInfo{Detail: "x"}); err != nil || id == "" {
			t.Fatalf("trigger %d = (%q, %v)", i, id, err)
		}
	}
	infos, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Every bundle exceeds 1 byte, but the newest is never deleted.
	if len(infos) != 1 {
		t.Fatalf("bundles after byte gc = %d, want 1 (newest kept)", len(infos))
	}
}

func TestReadBundleRejectsTraversal(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"../evil", "a/b", `a\b`} {
		if _, err := ReadBundle(dir, id); err == nil {
			t.Fatalf("ReadBundle(%q) accepted a traversal id", id)
		}
		if err := Remove(dir, id); err == nil {
			t.Fatalf("Remove(%q) accepted a traversal id", id)
		}
	}
}

// TestRemoveAndExplicitGC: operator-driven pruning — Remove deletes
// one bundle (missing is an error, for 404s), GC prunes oldest-first
// to a keep count and, unlike the retention gc, may empty the dir.
func TestRemoveAndExplicitGC(t *testing.T) {
	r, dir := newTestRecorder(t, Options{Registry: obs.NewRegistry()})
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := r.Trigger("stage-panic", TriggerInfo{Detail: fmt.Sprintf("n%d", i)})
		if err != nil || id == "" {
			t.Fatalf("trigger %d = (%q, %v)", i, id, err)
		}
		ids = append(ids, id)
	}

	if err := Remove(dir, ids[2]); err != nil {
		t.Fatalf("Remove = %v", err)
	}
	if err := Remove(dir, ids[2]); !os.IsNotExist(err) {
		t.Fatalf("second Remove = %v, want not-exist", err)
	}

	removed, err := GC(dir, 2, 0)
	if err != nil {
		t.Fatalf("GC = %v", err)
	}
	// Oldest first, and only down to keep=2 of the 4 remaining.
	if len(removed) != 2 || removed[0] != ids[0] || removed[1] != ids[1] {
		t.Fatalf("GC removed %v, want [%s %s]", removed, ids[0], ids[1])
	}
	infos, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].ID != ids[4] || infos[1].ID != ids[3] {
		t.Fatalf("bundles after GC = %+v, want the newest two", infos)
	}

	// keep=0 is a full prune; a missing dir is a no-op.
	if removed, err := GC(dir, 0, 0); err != nil || len(removed) != 2 {
		t.Fatalf("GC(keep=0) = (%v, %v), want 2 removed", removed, err)
	}
	if removed, err := GC(filepath.Join(t.TempDir(), "nope"), 0, 0); err != nil || removed != nil {
		t.Fatalf("GC(missing) = (%v, %v), want (nil, nil)", removed, err)
	}
}

func TestListToleratesMissingDirAndJunk(t *testing.T) {
	if infos, err := List(filepath.Join(t.TempDir(), "nope")); err != nil || infos != nil {
		t.Fatalf("List(missing) = (%v, %v), want (nil, nil)", infos, err)
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "fr-notjson.json"), []byte("{"), 0o644)
	os.WriteFile(filepath.Join(dir, "unrelated.txt"), []byte("x"), 0o644)
	if infos, err := List(dir); err != nil || len(infos) != 0 {
		t.Fatalf("List(junk) = (%v, %v), want empty", infos, err)
	}
}
