package parddg

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"polyprof/internal/obs"
)

// The engine's actors are spans: the sequencer is the engine root, each
// shard worker and the merge are its direct children.  Blocked time is
// recorded on the actor's own span (obs.Span.Block).
const (
	rootSpan        = "ddg-shards"
	mergeSpan       = "ddg-merge"
	shardSpanPrefix = "ddg.shard."
)

// ActorStat is one actor's time over the engine's wall; the four
// states sum to the report's WallNS exactly.
type ActorStat struct {
	Name      string `json:"name"`
	Role      string `json:"role"`
	RunningNS int64  `json:"running_ns"`
	// BlockSendNS is always 0: a shard channel holds maxInflight
	// batches and no more than maxInflight exist, so a send never
	// blocks.  The key stays for the report's consumers.
	BlockSendNS int64   `json:"blocked_send_ns"`
	BlockRecvNS int64   `json:"blocked_recv_ns"`
	IdleNS      int64   `json:"idle_ns"`
	BusyFrac    float64 `json:"busy_frac"` // running / wall
	// Transitions counts state changes: into and out of the actor's
	// span and each of its blocked intervals.
	Transitions uint64 `json:"transitions"`
}

// SpeedupRow is one entry of the Amdahl projection table.
type SpeedupRow struct {
	Shards    int     `json:"shards"`
	Projected float64 `json:"projected_speedup"`
}

// Report is the parallel diagnosis of one engine run.  All fractions
// are of the engine's wall: its root span, from NewEngine to the end of
// the merge.
type Report struct {
	WallNS int64 `json:"wall_ns"`
	Shards int   `json:"shards"`

	Actors []ActorStat `json:"actors"`

	// SequencerOccupancy is the fraction of wall the sequencer spent
	// running — the pipeline's measured serial fraction.  While it
	// exceeds every shard's busy fraction, adding shards cannot help.
	SequencerOccupancy float64 `json:"sequencer_occupancy"`
	// MaxShardBusy is the busiest shard's running fraction.
	MaxShardBusy float64 `json:"max_shard_busy"`
	// BackpressureNS is the sequencer's blocked time: how long the
	// serial stage itself was stalled on the pipeline.
	BackpressureNS int64 `json:"backpressure_ns"`
	// SerialFrac is the Amdahl serial fraction s estimated from useful
	// work: sequencer+merge running time over total running time.
	SerialFrac float64 `json:"serial_frac"`
	// CriticalPathNS lower-bounds the wall time at infinite shards:
	// the serial work plus the slowest shard's share.
	CriticalPathNS int64 `json:"critical_path_ns"`
	// Dominant names the actor with the highest busy fraction — the
	// first place to attack.
	Dominant string `json:"dominant"`
	// Amdahl projects speedup over a 1-worker run at various shard
	// counts, from SerialFrac: 1/(s + (1-s)/N).
	Amdahl []SpeedupRow `json:"amdahl"`
}

// amdahlPoints is the projection table's shard axis.
var amdahlPoints = []int{1, 2, 4, 8, 16, 32}

// Diagnose derives the parallel diagnosis from span records: the newest
// engine root ("ddg-shards") and its direct children.  It returns nil
// when the records hold no engine run.
func Diagnose(spans []obs.SpanRecord) *Report {
	var root *obs.SpanRecord
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == rootSpan && spans[i].ID != 0 {
			root = &spans[i]
			break
		}
	}
	if root == nil {
		return nil
	}
	var shards []obs.SpanRecord
	var mergeNS int64
	hasMerge := false
	for _, sp := range spans {
		switch {
		case sp.Parent != root.ID:
		case sp.Name == mergeSpan:
			mergeNS, hasMerge = int64(sp.Wall), true
		case strings.HasPrefix(sp.Name, shardSpanPrefix):
			shards = append(shards, sp)
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].ID < shards[j].ID })

	wall := int64(root.Wall)
	r := &Report{WallNS: wall, Shards: len(shards)}
	add := func(name, role string, running, blocked int64, blocks uint64) ActorStat {
		st := ActorStat{
			Name: name, Role: role,
			RunningNS: running, BlockRecvNS: blocked,
			IdleNS:      wall - running - blocked,
			BusyFrac:    frac(running, wall),
			Transitions: 2*blocks + 2,
		}
		r.Actors = append(r.Actors, st)
		return st
	}

	// The sequencer is the whole pass-2 serial thread — VM execution
	// plus event sequencing — from engine creation to drain, minus its
	// blocked intervals; it idles while the merge runs.
	seqBlocked := int64(root.Blocked)
	seq := add("sequencer", "sequencer", wall-seqBlocked-mergeNS, seqBlocked, root.Blocks)
	r.SequencerOccupancy = seq.BusyFrac
	r.BackpressureNS = seqBlocked
	serialNS := seq.RunningNS
	if hasMerge {
		serialNS += add("merge", "merge", mergeNS, 0, 0).RunningNS
	}
	var parallelNS, maxShardNS int64
	for i, sp := range shards {
		st := add(fmt.Sprintf("shard-%d", i), "shard", int64(sp.Wall-sp.Blocked), int64(sp.Blocked), sp.Blocks)
		parallelNS += st.RunningNS
		maxShardNS = max(maxShardNS, st.RunningNS)
		r.MaxShardBusy = max(r.MaxShardBusy, st.BusyFrac)
	}

	// Serial fraction over useful work, not wall: wall double-counts
	// overlap (shards run while the sequencer runs), useful work does
	// not.  The merge phase counts as serial even though its internals
	// fan out again — it cannot overlap pass-2 execution.
	if total := serialNS + parallelNS; total > 0 {
		r.SerialFrac = frac(serialNS, total)
	}
	r.CriticalPathNS = serialNS + maxShardNS
	for _, n := range amdahlPoints {
		r.Amdahl = append(r.Amdahl, SpeedupRow{Shards: n, Projected: speedup(r.SerialFrac, n)})
	}
	// Dominant: the busiest actor; ties keep the earlier actor.
	best := -1.0
	for _, st := range r.Actors {
		if st.BusyFrac > best {
			best = st.BusyFrac
			r.Dominant = st.Name
		}
	}
	return r
}

func frac(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// speedup is Amdahl's law: serial fraction s, N-way parallel remainder.
func speedup(s float64, n int) float64 {
	n = max(n, 1)
	denom := s + (1-s)/float64(n)
	if denom <= 0 {
		return float64(n)
	}
	return 1 / denom
}

// Publish records the report's headline figures as metrics, so the
// serving daemon's /metrics endpoint exposes the shard-utilization
// families after every parallel run.  Fractions publish as percent
// with two decimals (×100) in integer gauges.
func (r *Report) Publish(sc obs.Scope) {
	if r == nil || !sc.Enabled() {
		return
	}
	sc.SetGauge("ddg.seq.busy_ratio_pct100", pct100(r.SequencerOccupancy))
	sc.MaxGauge("ddg.shard.busy_ratio_pct100.max", pct100(r.MaxShardBusy))
	sc.Add("ddg.seq.backpressure_ns", uint64(r.BackpressureNS))
	sc.SetGauge("ddg.par.serial_frac_pct100", pct100(r.SerialFrac))
	sc.SetGauge("ddg.par.critical_path_ns", r.CriticalPathNS)
	for _, st := range r.Actors {
		if st.Role == "shard" {
			sc.Observe("ddg.shard.busy_ratio_pct100", uint64(pct100(st.BusyFrac)))
			sc.Observe("ddg.shard.blocked_recv_ns", uint64(st.BlockRecvNS))
		}
	}
}

func pct100(f float64) int64 { return int64(f * 10000) }

// Render formats the report as the human-readable diagnosis section of
// `polyprof diag`.
func (r *Report) Render() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "parallel diagnosis (%d shards, wall %s):\n",
		r.Shards, obs.FormatDuration(time.Duration(r.WallNS)))
	fmt.Fprintf(&sb, "  %-16s %-10s %8s %12s %12s %12s\n",
		"actor", "role", "busy", "running", "blocked", "idle")
	for _, a := range r.Actors {
		fmt.Fprintf(&sb, "  %-16s %-10s %7.1f%% %12s %12s %12s\n",
			a.Name, a.Role, 100*a.BusyFrac,
			obs.FormatDuration(time.Duration(a.RunningNS)),
			obs.FormatDuration(time.Duration(a.BlockRecvNS)),
			obs.FormatDuration(time.Duration(a.IdleNS)))
	}
	fmt.Fprintf(&sb, "  sequencer occupancy  %6.1f%%   max shard busy %6.1f%%   dominant: %s\n",
		100*r.SequencerOccupancy, 100*r.MaxShardBusy, r.Dominant)
	fmt.Fprintf(&sb, "  serial fraction      %6.1f%%   critical path  %s   backpressure %s\n",
		100*r.SerialFrac,
		obs.FormatDuration(time.Duration(r.CriticalPathNS)),
		obs.FormatDuration(time.Duration(r.BackpressureNS)))
	sb.WriteString("  projected speedup (Amdahl, from measured serial fraction):\n   ")
	for _, row := range r.Amdahl {
		fmt.Fprintf(&sb, " N=%-2d %.2fx ", row.Shards, row.Projected)
	}
	sb.WriteByte('\n')
	return sb.String()
}
