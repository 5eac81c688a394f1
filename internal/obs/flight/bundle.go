package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"polyprof/internal/obs"
)

// Meta identifies the process that wrote a bundle.
type Meta struct {
	obs.BuildInfo
	PID      int    `json:"pid"`
	Hostname string `json:"hostname,omitempty"`
}

// MemSummary is the runtime.MemStats subset worth keeping alongside
// the heap profile.
type MemSummary struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
	NumGC          uint32 `json:"num_gc"`
	NumGoroutine   int    `json:"num_goroutine"`
}

// Bundle is one self-contained incident record: everything needed to
// reconstruct what the process was doing when the anomaly fired,
// readable with nothing but a JSON parser.
type Bundle struct {
	ID     string    `json:"id"`
	Reason string    `json:"reason"`
	At     time.Time `json:"at"`
	Trace  string    `json:"trace,omitempty"`
	Job    string    `json:"job,omitempty"`
	Stage  string    `json:"stage,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Meta   Meta      `json:"meta"`

	// Events is the frozen ring, oldest first.
	Events []Event `json:"events"`
	// Metrics is the process metrics snapshot at trigger time.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Diagnosis is the latest parallel-engine diagnosis, when one ran.
	// Its JSON key, "sampler", is kept for existing bundle readers.
	Diagnosis json.RawMessage `json:"sampler,omitempty"`
	// Extra is trigger-site payload (e.g. the job record with its
	// lifecycle trace).
	Extra json.RawMessage `json:"extra,omitempty"`
	// Goroutines and Heap are the debug=1 text pprof profiles,
	// truncated to profileCap bytes.
	Goroutines string      `json:"goroutines,omitempty"`
	Heap       string      `json:"heap,omitempty"`
	Mem        *MemSummary `json:"mem,omitempty"`
}

// BundleInfo is one List entry: the bundle header without its payload.
type BundleInfo struct {
	ID     string    `json:"id"`
	Reason string    `json:"reason"`
	At     time.Time `json:"at"`
	Trace  string    `json:"trace,omitempty"`
	Job    string    `json:"job,omitempty"`
	Stage  string    `json:"stage,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Events int       `json:"events"`
	Bytes  int64     `json:"bytes"`
}

// profileCap truncates the text pprof profiles embedded in a bundle;
// a daemon with thousands of goroutines should still produce a small
// bundle.
const profileCap = 256 << 10

func buildBundle(reason string, info TriggerInfo, at time.Time, seq uint64,
	events []Event, diagnosis json.RawMessage, reg *obs.Registry) *Bundle {
	host, _ := os.Hostname()
	b := &Bundle{
		ID:     bundleID(at, seq, reason),
		Reason: reason,
		At:     at,
		Trace:  info.Trace,
		Job:    info.Job,
		Stage:  info.Stage,
		Detail: info.Detail,
		Meta:   Meta{BuildInfo: obs.CollectBuildInfo(), PID: os.Getpid(), Hostname: host},
		Events: events,
	}
	if len(diagnosis) > 0 {
		b.Diagnosis = diagnosis
	}
	if reg != nil {
		snap := reg.Snapshot()
		// The process registry's span list grows with uptime; the ring
		// already carries the recent spans, so drop them here.
		snap.Spans = nil
		b.Metrics = &snap
	}
	if info.Extra != nil {
		if data, err := json.Marshal(info.Extra); err == nil {
			b.Extra = data
		}
	}
	b.Goroutines = textProfile("goroutine")
	b.Heap = textProfile("heap")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.Mem = &MemSummary{
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		HeapObjects:    ms.HeapObjects,
		NumGC:          ms.NumGC,
		NumGoroutine:   runtime.NumGoroutine(),
	}
	return b
}

// bundleID builds a sortable, filesystem-safe ID: nanosecond timestamp
// (fixed width through 2262, so lexicographic order is chronological),
// a per-process sequence, and the reason slug.
func bundleID(at time.Time, seq uint64, reason string) string {
	return fmt.Sprintf("fr-%019d-%03d-%s", at.UnixNano(), seq%1000, slug(reason))
}

func slug(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "trigger"
	}
	return b.String()
}

func textProfile(name string) string {
	p := pprof.Lookup(name)
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return fmt.Sprintf("(profile %s failed: %v)", name, err)
	}
	if buf.Len() > profileCap {
		return buf.String()[:profileCap] + "\n... (truncated)"
	}
	return buf.String()
}

// writeBundle persists the bundle under dir via write-temp-then-rename
// so a concurrent List never observes a half-written file.
func writeBundle(dir string, b *Bundle) (string, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	final := filepath.Join(dir, b.ID+".json")
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return b.ID, nil
}

// gcBundles deletes oldest bundles until at most maxBundles files
// totalling at most maxBytes remain (always keeping the newest one).
func gcBundles(dir string, maxBundles int, maxBytes int64, logf func(string, ...any)) error {
	names, sizes, err := bundleFiles(dir)
	if err != nil {
		return err
	}
	var total int64
	for _, sz := range sizes {
		total += sz
	}
	for i := 0; i < len(names)-1; i++ { // never delete the newest
		remaining := len(names) - i
		if remaining <= maxBundles && total <= maxBytes {
			break
		}
		path := filepath.Join(dir, names[i])
		if err := os.Remove(path); err != nil {
			return err
		}
		total -= sizes[i]
		if logf != nil {
			logf("flight: gc removed bundle %s", names[i])
		}
	}
	return nil
}

// bundleFiles returns the bundle file names in dir sorted oldest first
// (IDs sort chronologically), with sizes.
func bundleFiles(dir string) ([]string, []int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	var sizes []int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "fr-") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		names = append(names, e.Name())
		sizes = append(sizes, info.Size())
	}
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool { return names[idx[a]] < names[idx[c]] })
	outN := make([]string, len(idx))
	outS := make([]int64, len(idx))
	for i, j := range idx {
		outN[i], outS[i] = names[j], sizes[j]
	}
	return outN, outS, nil
}

// List returns the bundles under dir, newest first.  A missing dir is
// an empty list, not an error — the recorder may simply never have
// triggered.
func List(dir string) ([]BundleInfo, error) {
	if dir == "" {
		return nil, nil
	}
	names, sizes, err := bundleFiles(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []BundleInfo
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			continue
		}
		var b struct {
			ID     string    `json:"id"`
			Reason string    `json:"reason"`
			At     time.Time `json:"at"`
			Trace  string    `json:"trace"`
			Job    string    `json:"job"`
			Stage  string    `json:"stage"`
			Detail string    `json:"detail"`
			Events []Event   `json:"events"`
		}
		if err := json.Unmarshal(data, &b); err != nil {
			continue
		}
		out = append(out, BundleInfo{
			ID: b.ID, Reason: b.Reason, At: b.At, Trace: b.Trace, Job: b.Job,
			Stage: b.Stage, Detail: b.Detail, Events: len(b.Events), Bytes: sizes[i],
		})
	}
	return out, nil
}

// bundlePath validates an ID (with or without the .json suffix) and
// resolves it to a path under dir.  IDs containing path separators are
// rejected — a bundle ID must never escape the bundle directory.
func bundlePath(dir, id string) (string, error) {
	if dir == "" {
		return "", fmt.Errorf("flight: no bundle directory")
	}
	if strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return "", fmt.Errorf("flight: invalid bundle id %q", id)
	}
	name := id
	if !strings.HasSuffix(name, ".json") {
		name += ".json"
	}
	return filepath.Join(dir, name), nil
}

// Remove deletes one bundle by ID.  Removing a bundle that does not
// exist is an error (os.IsNotExist) so callers can answer 404.
func Remove(dir, id string) error {
	path, err := bundlePath(dir, id)
	if err != nil {
		return err
	}
	return os.Remove(path)
}

// GC prunes bundles oldest-first until at most keep remain and (when
// maxBytes > 0) their total size fits maxBytes, returning the removed
// IDs.  keep == 0 removes everything — unlike the recorder's internal
// retention gc, an explicit prune may empty the directory.
func GC(dir string, keep int, maxBytes int64) ([]string, error) {
	if keep < 0 {
		keep = 0
	}
	names, sizes, err := bundleFiles(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var total int64
	for _, sz := range sizes {
		total += sz
	}
	var removed []string
	for i := 0; i < len(names); i++ {
		remaining := len(names) - i
		if remaining <= keep && (maxBytes <= 0 || total <= maxBytes) {
			break
		}
		if err := os.Remove(filepath.Join(dir, names[i])); err != nil {
			return removed, err
		}
		total -= sizes[i]
		removed = append(removed, strings.TrimSuffix(names[i], ".json"))
	}
	return removed, nil
}

// ReadBundle loads one bundle by ID (with or without the .json
// suffix).  IDs containing path separators are rejected.
func ReadBundle(dir, id string) (*Bundle, error) {
	path, err := bundlePath(dir, id)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flight: bundle %s does not parse: %w", id, err)
	}
	return &b, nil
}
