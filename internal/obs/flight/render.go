package flight

import (
	"fmt"
	"strings"
	"time"

	"polyprof/internal/obs"
)

// RenderList formats bundle infos as the `polyprof flight list` table.
func RenderList(infos []BundleInfo) string {
	if len(infos) == 0 {
		return "no flight bundles\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-42s %-20s %-19s %7s %9s\n", "id", "reason", "at", "events", "bytes")
	for _, in := range infos {
		fmt.Fprintf(&sb, "%-42s %-20s %-19s %7d %9d\n",
			in.ID, in.Reason, in.At.Format("2006-01-02 15:04:05"), in.Events, in.Bytes)
		if in.Detail != "" {
			fmt.Fprintf(&sb, "    %s\n", in.Detail)
		}
	}
	return sb.String()
}

// Render formats a bundle as a human-readable incident report: header,
// event timeline with offsets relative to the trigger instant
// (negative = before the anomaly), headline metrics, and runtime
// state.  This is the `polyprof flight show` output.
func Render(b *Bundle) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "flight bundle %s\n", b.ID)
	fmt.Fprintf(&sb, "  reason:  %s\n", b.Reason)
	if b.Detail != "" {
		fmt.Fprintf(&sb, "  detail:  %s\n", b.Detail)
	}
	fmt.Fprintf(&sb, "  at:      %s\n", b.At.Format(time.RFC3339Nano))
	if b.Trace != "" {
		fmt.Fprintf(&sb, "  trace:   %s\n", b.Trace)
	}
	if b.Job != "" {
		fmt.Fprintf(&sb, "  job:     %s\n", b.Job)
	}
	if b.Stage != "" {
		fmt.Fprintf(&sb, "  stage:   %s\n", b.Stage)
	}
	fmt.Fprintf(&sb, "  process: pid=%d %s rev=%s gomaxprocs=%d\n",
		b.Meta.PID, b.Meta.Go, b.Meta.Rev, b.Meta.GoMaxProcs)
	if b.Mem != nil {
		fmt.Fprintf(&sb, "  runtime: %d goroutines, heap %s (%d objects), %d GCs\n",
			b.Mem.NumGoroutine, formatBytes(b.Mem.HeapAllocBytes), b.Mem.HeapObjects, b.Mem.NumGC)
	}

	if len(b.Events) > 0 {
		fmt.Fprintf(&sb, "\ntimeline (%d events, offsets relative to trigger):\n", len(b.Events))
		for _, ev := range b.Events {
			off := ev.At.Sub(b.At)
			fmt.Fprintf(&sb, "  %12s  %-8s %-24s", formatOffset(off), ev.Kind, ev.Name)
			if ev.Trace != "" {
				fmt.Fprintf(&sb, " [%s]", ev.Trace)
			}
			if ev.WallNS > 0 {
				fmt.Fprintf(&sb, " (%s)", obs.FormatDuration(time.Duration(ev.WallNS)))
			}
			if ev.Detail != "" {
				fmt.Fprintf(&sb, " %s", ev.Detail)
			}
			sb.WriteByte('\n')
		}
	}

	if b.Metrics != nil && len(b.Metrics.Counters) > 0 {
		sb.WriteString("\nheadline counters:\n")
		for _, c := range b.Metrics.Counters {
			fmt.Fprintf(&sb, "  %-40s %12d\n", c.Name, c.Value)
		}
	}
	if b.Goroutines != "" {
		if i := strings.IndexByte(b.Goroutines, '\n'); i > 0 {
			fmt.Fprintf(&sb, "\n%s (full dump in bundle JSON \"goroutines\")\n", b.Goroutines[:i])
		}
	}
	return sb.String()
}

// formatOffset renders an event's distance from the trigger instant as
// T-… / T+… (e.g. "T-1.2s", "T+0ms").
func formatOffset(d time.Duration) string {
	sign := "+"
	if d < 0 {
		sign = "-"
		d = -d
	}
	return "T" + sign + obs.FormatDuration(d)
}

func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
