package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the closest ranks; xs need not be sorted.  An empty
// sample set has no quantile and yields NaN, which result.set refuses.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it: the rule for reporting a tail percentile at all.
func tailOK(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return parseVmHWM(string(data))
}

// parseVmHWM extracts VmHWM, in MiB, from the text of /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in process status")
}

// cpuTimes is the runtime's cumulative estimate of CPU time spent in GC
// and in total, excluding idle time.
type cpuTimes struct{ gc, busy float64 }

// readCPUTimes forces a collection first: the runtime refreshes its
// CPU-class estimates at the end of each GC cycle.
func readCPUTimes() cpuTimes {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

// heapObjectsMiB is the live-and-unswept heap object size right now.
func heapObjectsMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuShares runs `go tool pprof -top` on a CPU profile and returns the
// share, in percent, of flat samples that landed in each package.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}

// parseTop sums the flat% column of `pprof -top` output by package.
func parseTop(out string) (map[string]float64, error) {
	shares := map[string]float64{}
	header := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		shares[pkgOf(f[5])] += pct
	}
	if !header {
		return nil, errors.New("pprof output has no flat/flat% header")
	}
	return shares, nil
}

// pkgOf returns the import path of a symbol such as
// "polyprof/internal/fold.(*Fitter).reduce" or "math/big.nat.divBasic".
func pkgOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may contain paths and dots
	}
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}
