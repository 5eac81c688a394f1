package evaluation

import (
	"encoding/json"
	"strings"
	"testing"

	"polyprof/internal/obs"
	"polyprof/internal/workloads"
)

// diagGoldenPaths locks the `polyprof diag -json` output schema: every
// dotted key path below must be present in the serialized report.
// Dashboards and scripts consume this JSON; removing or renaming a key
// is a breaking change and must show up as a failure here, not in a
// consumer.  ("[]" descends into the first element of an array.)
var diagGoldenPaths = []string{
	"[].workload",
	"[].shards",
	"[].ops",
	"[].wall_ns",
	"[].parallel",
	"[].parallel.wall_ns",
	"[].parallel.shards",
	"[].parallel.actors",
	"[].parallel.actors.[].name",
	"[].parallel.actors.[].role",
	"[].parallel.actors.[].running_ns",
	"[].parallel.actors.[].blocked_send_ns",
	"[].parallel.actors.[].blocked_recv_ns",
	"[].parallel.actors.[].idle_ns",
	"[].parallel.actors.[].busy_frac",
	"[].parallel.actors.[].transitions",
	"[].parallel.sequencer_occupancy",
	"[].parallel.max_shard_busy",
	"[].parallel.backpressure_ns",
	"[].parallel.serial_frac",
	"[].parallel.critical_path_ns",
	"[].parallel.dominant",
	"[].parallel.amdahl",
	"[].parallel.amdahl.[].shards",
	"[].parallel.amdahl.[].projected_speedup",
}

// lookupPath walks a dotted key path through decoded JSON, descending
// into the first element at each "[]" segment.  Returns false when any
// segment is missing.
func lookupPath(v any, path string) bool {
	for _, seg := range strings.Split(path, ".") {
		if seg == "[]" {
			arr, ok := v.([]any)
			if !ok || len(arr) == 0 {
				return false
			}
			v = arr[0]
			continue
		}
		obj, ok := v.(map[string]any)
		if !ok {
			return false
		}
		v, ok = obj[seg]
		if !ok {
			return false
		}
	}
	return true
}

func TestDiagJSONSchemaGolden(t *testing.T) {
	spec := workloads.ByName("example1")
	if spec == nil {
		t.Fatal("example1 workload missing")
	}
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	rep, err := Diagnose(*spec, 2, reg.Scope())
	if err != nil {
		t.Fatal(err)
	}
	data, err := DiagJSON([]*DiagReport{rep})
	if err != nil {
		t.Fatal(err)
	}

	var decoded any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("diag JSON does not parse: %v", err)
	}
	for _, path := range diagGoldenPaths {
		if !lookupPath(decoded, path) {
			t.Errorf("diag -json output lost key path %q:\n%s", path, data)
		}
	}

	// The timeline is terminal/trace-export only; leaking it into the
	// JSON report would balloon every dashboard fetch.
	if strings.Contains(string(data), `"timeline"`) || strings.Contains(string(data), `"Timeline"`) {
		t.Fatalf("diag -json output leaked the timeline:\n%s", data)
	}
}
