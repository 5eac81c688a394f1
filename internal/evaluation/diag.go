package evaluation

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"polyprof/internal/core"
	"polyprof/internal/obs"
	"polyprof/internal/parddg"
	"polyprof/internal/workloads"
)

// DiagReport is the result of one parallel-engine diagnosis run: the
// full pipeline executed on the sharded dependence engine, plus the
// diagnosis derived from the engine's spans.
type DiagReport struct {
	Workload string `json:"workload"`
	Shards   int    `json:"shards"`
	Ops      uint64 `json:"ops"`
	WallNS   int64  `json:"wall_ns"`
	// Parallel is the engine's diagnosis: per-actor busy fractions,
	// sequencer occupancy, backpressure, critical path, Amdahl table.
	Parallel *parddg.Report `json:"parallel"`
}

// Diagnose profiles one workload end to end on the sharded dependence
// engine, recording into sc, and derives the parallel diagnosis from
// the engine's spans.  shards must be positive — the diagnosis is about
// the parallel engine — and sc must record: the spans are the data.
func Diagnose(spec workloads.Spec, shards int, sc obs.Scope) (*DiagReport, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("diag: shards must be positive (got %d)", shards)
	}
	if !sc.Enabled() {
		return nil, fmt.Errorf("diag: the scope's registry must be enabled")
	}
	root := sc.StartSpan("diag:" + spec.Name)
	defer root.End()

	opts := core.DefaultRunOptions()
	opts.Obs = sc.WithSpan(root)
	opts.ParallelDDG = shards

	start := time.Now()
	p, err := core.Run(spec.Build(), opts)
	if err != nil {
		root.Fail(err)
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return &DiagReport{
		Workload: spec.Name,
		Shards:   shards,
		Ops:      p.DDG.TotalOps,
		WallNS:   int64(time.Since(start)),
		Parallel: parddg.Diagnose(sc.Registry().Spans()),
	}, nil
}

// DiagnoseSuite diagnoses every Rodinia twin.
func DiagnoseSuite(shards int, sc obs.Scope) ([]*DiagReport, error) {
	var out []*DiagReport
	for _, spec := range workloads.Rodinia() {
		r, err := Diagnose(spec, shards, sc)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderDiag formats one diagnosis for the terminal.
func RenderDiag(r *DiagReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "parallel-engine diagnosis — %s (%d shards, %d ops, wall %s)\n\n",
		r.Workload, r.Shards, r.Ops, obs.FormatDuration(time.Duration(r.WallNS)))
	sb.WriteString(r.Parallel.Render())
	return sb.String()
}

// DiagJSON serializes one or more diagnosis reports.
func DiagJSON(rs []*DiagReport) ([]byte, error) {
	return json.MarshalIndent(rs, "", "  ")
}
