package obs

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// TraceEvent is one event of the Chrome "Trace Event Format" — the
// JSON consumed by Perfetto and chrome://tracing.  Complete spans use
// phase "X" with microsecond timestamps; phase "M" carries the
// process/thread naming metadata.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceDoc is the trace-event JSON object form.
type TraceDoc struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// trackOf names the Perfetto row a span renders on.
func trackOf(sp SpanRecord) string {
	if sp.Track != "" {
		return sp.Track
	}
	return sp.Name
}

// ChromeTrace renders finished spans as a Chrome trace-event JSON
// document: one complete ("X") event per span and one track (tid) per
// distinct track name (Track when set, the span name otherwise), so
// every pipeline stage gets its own row in Perfetto.  Timestamps are
// microseconds relative to the earliest span start; span id/parent,
// event counts, throughput and error status travel in the event args.
func ChromeTrace(spans []SpanRecord) ([]byte, error) {
	doc := TraceDoc{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{}}
	if len(spans) == 0 {
		return json.MarshalIndent(doc, "", " ")
	}
	var t0 time.Time
	for _, sp := range spans {
		if !sp.Start.IsZero() && (t0.IsZero() || sp.Start.Before(t0)) {
			t0 = sp.Start
		}
	}
	doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "polyprof"},
	})
	// Assign one track per span name, stable across runs: spans sorted
	// by start time name the tracks in first-seen order.
	order := make([]SpanRecord, len(spans))
	copy(order, spans)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start.Before(order[j].Start) })
	tids := map[string]int{}
	for _, sp := range order {
		track := trackOf(sp)
		if _, ok := tids[track]; ok {
			continue
		}
		tid := len(tids) + 1
		tids[track] = tid
		doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": track},
		})
	}
	for _, sp := range order {
		args := map[string]any{"id": sp.ID, "status": sp.Status}
		if sp.Parent != 0 {
			args["parent"] = sp.Parent
		}
		if sp.Events > 0 {
			args["events"] = sp.Events
			args["events_per_sec"] = sp.EventsPerSec
		}
		if sp.Err != "" {
			args["error"] = sp.Err
		}
		doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
			Name: sp.Name, Cat: "stage", Ph: "X",
			Ts:  float64(sp.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(sp.Wall.Nanoseconds()) / 1e3,
			Pid: 1, Tid: tids[trackOf(sp)],
			Args: args,
		})
	}
	return json.MarshalIndent(doc, "", " ")
}

// WriteChromeTrace writes the spans' trace-event document to path.
func WriteChromeTrace(path string, spans []SpanRecord) error {
	data, err := ChromeTrace(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
