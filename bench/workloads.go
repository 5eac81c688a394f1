package main

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Op kinds: what one closed-loop op does with one program, or an open
// loop of jobs against the daemon.
const (
	kindProfile  = "profile"  // ProfileWith, sequential engine, plus AnalyzeStatic
	kindOptimize = "optimize" // OptimizeWith: profile, then apply and measure schedules
	kindEngine   = "engine"   // par2, stream and resume modes of ProfileWith
	kindJobs     = "jobs"     // open-loop job submissions to an in-process daemon
)

// probeProgram is the program the traced run drives through every layer
// its workload's own ops do not reach, so that every per-layer metric is
// measured on every workload, and the one set-up profiles to warm the
// pipeline.  backprop is the paper's mid-size case study and sits in
// three of the four workloads.  Its profile also makes set-up long
// enough (tens of ms) that the ~1 ms preemptions of a shared host do
// not flip the median set-up time, as they did with example1 (~1 ms).
const probeProgram = "backprop"

// parShards is the shard count of par2 steps: the runner has two CPUs.
const parShards = 2

// probeEpochs is the epoch length the traced run streams the probe
// program with.
const probeEpochs = 8192

// workload is one traffic mix.  Closed-loop workloads repeat rounds over
// a fixed program list; the seed orders each round and draws the op
// parameters, so every run measures the same multiset of work.
type workload struct {
	Name  string
	Why   string
	Kind  string
	Progs []string
	// Epochs are the streaming epoch lengths of an engine workload, dealt
	// round-robin over Progs.
	Epochs []uint64
	// Loop is the open-loop traffic of a jobs workload.
	Loop loopConfig
}

// loopConfig is open-loop traffic: Poisson arrivals at Rate jobs/s for
// Dur.  Each job is a seeded draw from the workload's programs, sent as
// an isa-JSON body with ?nocache=1, except that the first submission of
// each program is sent cacheable and a ResubmitFrac share of the jobs
// resubmit, cacheably, a program whose first submission is at least
// MinAge old: a cache hit.
type loopConfig struct {
	Rate         float64
	Dur          time.Duration
	ResubmitFrac float64
	MinAge       time.Duration
}

// overLimit is the latency limit of the open loop: a job that fails or
// finishes later than this after it was due misses it.
const overLimit = time.Second

var workloads = []workload{
	{
		Name: "rodinia-sweep",
		Why:  "the paper's Experiment I traffic: each Rodinia twin profiled once; ddg and fold do almost all the work",
		Kind: kindProfile,
		// cfd is left out: one profile of it takes ~27 s on 2 CPUs, more
		// than a whole run.
		Progs: []string{"backprop", "bfs", "b+tree", "heartwall", "hotspot", "hotspot3D", "kmeans",
			"lavaMD", "leukocyte", "lud", "myocyte", "nn", "nw", "particlefilter", "pathfinder",
			"srad_v1", "srad_v2", "streamcluster"},
	},
	{
		Name: "polybench-pgo",
		Why:  "the PGO loop over small kernels: per-instruction overhead, sched, feedback and transform take a larger share",
		Kind: kindOptimize,
		// gemsfdtd is left out: one profile of it takes ~86 s.
		Progs: []string{"gemm", "2mm", "atax", "trisolv", "jacobi-2d", "seidel-2d", "cholesky", "mvt",
			"bicg", "syrk", "doitgen", "heat-3d", "backprop", "example1", "example2"},
	},
	{
		Name: "jobs-openloop",
		Why:  "Poisson job traffic through serve, jobstore and jobexec (WAL fsync, queueing, cache) where profiling is cheap",
		Kind: kindJobs,
		Progs: []string{"atax", "trisolv", "mvt", "bicg", "syrk", "cholesky", "gemm", "2mm", "nn", "nw",
			"pathfinder", "backprop", "b+tree", "bfs", "example1", "example2"},
		Loop: loopConfig{Rate: 8, ResubmitFrac: 0.25, MinAge: 2 * time.Second},
	},
	{
		Name:   "engine-matrix",
		Why:    "stencils through the parallel engine, epoch streaming and checkpoint resume, each checked against the buffered report",
		Kind:   kindEngine,
		Progs:  []string{"jacobi-2d", "seidel-2d", "doitgen", "heat-3d", "srad_v2", "hotspot"},
		Epochs: []uint64{4096, 8192, 16384},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// step is one planned op of a closed-loop round.
type step struct {
	prog string
	mode string // kindProfile, kindOptimize, or an engine mode
	// epochs is the streaming epoch length of stream and resume modes.
	epochs uint64
	// ckFrac picks the checkpoint a resume mode restarts from, as a
	// fraction of the stream mode's checkpoints.
	ckFrac float64
}

// Engine modes.
const (
	modePar2   = "par2"   // sharded parallel engine, 2 shards
	modeStream = "stream" // sequential engine in streaming epochs, keeping checkpoints
	modeResume = "resume" // resumed from one of the stream mode's checkpoints
)

// plan lays out round r of a closed-loop workload.  It depends only on
// the seed and the round number, never on timing.
func plan(w workload, seed int64, r int) []step {
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	order := slices.Clone(w.Progs)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var steps []step
	for _, p := range order {
		if w.Kind != kindEngine {
			steps = append(steps, step{prog: p, mode: w.Kind})
			continue
		}
		// Each program streams with its own epoch length, dealt round-robin
		// over w.Progs: how much work a round does must not depend on the
		// seed, since the spread across seeds is the benchmark's noise.
		e := w.Epochs[slices.Index(w.Progs, p)%len(w.Epochs)]
		steps = append(steps,
			step{prog: p, mode: modePar2},
			step{prog: p, mode: modeStream, epochs: e},
			// A checkpoint from 45 % to 55 % of the way through.
			step{prog: p, mode: modeResume, epochs: e, ckFrac: 0.45 + 0.1*rng.Float64()})
	}
	return steps
}

// slot is one scheduled job of an open loop.
type slot struct {
	Due       time.Duration // from the start of the loop
	Prog      string
	Cacheable bool // sent without ?nocache=1
	Resubmit  bool // repeats an earlier cacheable submission
}

// schedule lays out an open loop.  Arrivals are a Poisson process
// conditioned on its count: rate*dur uniform draws, sorted.  Fresh jobs
// cycle through seeded permutations of progs, so every program runs about
// equally often whatever the seed.
func schedule(seed int64, progs []string, c loopConfig) []slot {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(c.Rate * c.Dur.Seconds()))
	slots := make([]slot, n)
	for i := range slots {
		slots[i].Due = time.Duration(rng.Float64() * float64(c.Dur))
	}
	slices.SortFunc(slots, func(a, b slot) int { return cmp.Compare(a.Due, b.Due) })

	// Resubmissions come from slots late enough for most programs to have
	// an original at least MinAge old.
	var late []int
	for i, s := range slots {
		if s.Due >= 2*c.MinAge {
			late = append(late, i)
		}
	}
	rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
	late = late[:min(len(late), int(math.Round(c.ResubmitFrac*float64(n))))]
	for _, i := range late {
		slots[i].Resubmit = true
	}

	first := map[string]time.Duration{}
	var perm []string
	for i := range slots {
		s := &slots[i]
		if s.Resubmit {
			continue
		}
		if len(perm) == 0 {
			perm = slices.Clone(progs)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		s.Prog, perm = perm[0], perm[1:]
		if _, seen := first[s.Prog]; !seen {
			first[s.Prog] = s.Due
			s.Cacheable = true
		}
	}
	for i := range slots {
		s := &slots[i]
		if !s.Resubmit {
			continue
		}
		var old []string
		oldest := ""
		for _, p := range progs { // progs order keeps the draw deterministic
			due, ok := first[p]
			if !ok || due > s.Due {
				continue
			}
			if due <= s.Due-c.MinAge {
				old = append(old, p)
			}
			if oldest == "" || due < first[oldest] {
				oldest = p
			}
		}
		switch {
		case len(old) > 0:
			s.Prog, s.Cacheable = old[rng.Intn(len(old))], true
		case oldest != "":
			s.Prog, s.Cacheable = oldest, true
		default: // nothing submitted yet: a fresh job instead
			s.Prog, s.Resubmit = progs[rng.Intn(len(progs))], false
		}
	}
	return slots
}
