package evaluation

import (
	"encoding/json"
	"testing"

	"polyprof/internal/obs"
	"polyprof/internal/workloads"
)

// recordingScope returns the root scope of a fresh enabled registry.
func recordingScope() obs.Scope {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	return reg.Scope()
}

func TestDiagnoseRejectsSequential(t *testing.T) {
	if _, err := Diagnose(*workloads.ByName("example1"), 0, recordingScope()); err == nil {
		t.Fatal("Diagnose(shards=0) succeeded; want error")
	}
}

// TestDiagnoseRejectsDisabledScope: the diagnosis is read from the
// run's spans, so a scope that records none is an error.
func TestDiagnoseRejectsDisabledScope(t *testing.T) {
	if _, err := Diagnose(*workloads.ByName("example1"), 2, obs.NewRegistry().Scope()); err == nil {
		t.Fatal("Diagnose(disabled scope) succeeded; want error")
	}
}

// TestDiagActorStatesSumToWall: on a live run every actor's states,
// read back from the -json document, sum to the engine wall exactly,
// so no busy fraction is understated or exceeds 1.
func TestDiagActorStatesSumToWall(t *testing.T) {
	r, err := Diagnose(*workloads.ByName("example2"), 2, recordingScope())
	if err != nil {
		t.Fatal(err)
	}
	data, err := DiagJSON([]*DiagReport{r})
	if err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Parallel struct {
			WallNS int64 `json:"wall_ns"`
			Actors []struct {
				Name      string  `json:"name"`
				Running   int64   `json:"running_ns"`
				BlockSend int64   `json:"blocked_send_ns"`
				BlockRecv int64   `json:"blocked_recv_ns"`
				Idle      int64   `json:"idle_ns"`
				BusyFrac  float64 `json:"busy_frac"`
			} `json:"actors"`
		} `json:"parallel"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	par := decoded[0].Parallel
	if par.WallNS <= 0 || len(par.Actors) != 2+2 {
		t.Fatalf("parallel section = %s", data)
	}
	for _, a := range par.Actors {
		if sum := a.Running + a.BlockSend + a.BlockRecv + a.Idle; sum != par.WallNS {
			t.Errorf("actor %s: running+blocked+idle = %d, want parallel.wall_ns %d", a.Name, sum, par.WallNS)
		}
		if a.BusyFrac > 1 {
			t.Errorf("actor %s busy_frac = %v > 1", a.Name, a.BusyFrac)
		}
	}
}

// TestDiagnoseLive runs a real diagnosis on a small workload and checks
// the report shape end to end, including the JSON encoding the CI leg
// and the golden acceptance command consume.
func TestDiagnoseLive(t *testing.T) {
	spec := workloads.ByName("example2")
	if spec == nil {
		t.Fatal("workload example2 missing")
	}
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	r, err := Diagnose(*spec, 2, reg.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "example2" || r.Shards != 2 {
		t.Fatalf("header = %q/%d", r.Workload, r.Shards)
	}
	if r.Ops == 0 || r.WallNS <= 0 {
		t.Fatalf("ops=%d wall=%d", r.Ops, r.WallNS)
	}
	if r.Parallel == nil || len(r.Parallel.Actors) != 2+2 { // sequencer + 2 shards + merge
		t.Fatalf("parallel section = %+v", r.Parallel)
	}
	// `diag -trace` writes the registry's spans: the shard actors are
	// there, with their blocked time.
	shards := map[string]obs.SpanRecord{}
	for _, sp := range reg.Spans() {
		shards[sp.Name] = sp
	}
	for _, name := range []string{"ddg.shard.0", "ddg.shard.1"} {
		if sp, ok := shards[name]; !ok || sp.Wall <= 0 || sp.Blocks == 0 {
			t.Fatalf("trace span %s = %+v (present %v), want wall > 0 with blocked intervals", name, sp, ok)
		}
	}

	// The JSON shape is the contract for CI artifacts: stable top-level
	// keys, parallel section present.
	data, err := DiagJSON([]*DiagReport{r})
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]json.RawMessage
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d reports", len(decoded))
	}
	for _, key := range []string{"workload", "shards", "ops", "wall_ns", "parallel"} {
		if _, ok := decoded[0][key]; !ok {
			t.Fatalf("diag JSON missing %q: %s", key, data)
		}
	}
	var par struct {
		SequencerOccupancy float64         `json:"sequencer_occupancy"`
		Dominant           string          `json:"dominant"`
		Amdahl             json.RawMessage `json:"amdahl"`
	}
	if err := json.Unmarshal(decoded[0]["parallel"], &par); err != nil {
		t.Fatal(err)
	}
	if par.Dominant == "" || par.SequencerOccupancy < 0 || par.SequencerOccupancy > 1 {
		t.Fatalf("parallel JSON = %+v", par)
	}
	if len(par.Amdahl) == 0 {
		t.Fatal("amdahl table missing from diag JSON")
	}
}
