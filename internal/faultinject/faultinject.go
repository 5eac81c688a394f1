// Package faultinject is a registry of named fault points for
// deterministic chaos testing.  Pipeline stages declare points at
// package init:
//
//	var stepFault = faultinject.Point("vm.step")
//
// and call stepFault.Hit() (or HitPanic at sites that cannot return an
// error) on the governed path.  Disarmed — the default — a hit costs a
// single atomic load of a package-global counter, in the spirit of the
// obs registry's disabled gating, so fault points are free to leave in
// production binaries.
//
// Tests and operators arm points with Arm / ArmString, or via the
// POLYPROF_FAULT environment variable consumed by cmd/polyprof:
//
//	POLYPROF_FAULT="vm.step=error,jobexec.attempt=panic:boom:3"
//
// Spec syntax per point: mode[:arg][:count] where mode is one of
// panic, error, budget, delay; arg is the message (panic/error), the
// budget resource name, or the sleep duration (delay); count fires the
// fault only on the count-th hit (default 1, i.e. the first).  A
// negative count makes the point sticky: it fires on every hit and
// never self-disarms, simulating a sustained condition (a network
// partition, a wedged disk) rather than a one-shot glitch.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polyprof/internal/budget"
)

// Mode selects what an armed point injects.
type Mode int

const (
	// ModePanic makes Hit panic with a *Fault.
	ModePanic Mode = iota
	// ModeError makes Hit return a *Fault error.
	ModeError
	// ModeBudget makes Hit return a *budget.Error, simulating resource
	// exhaustion at the point.
	ModeBudget
	// ModeDelay makes Hit sleep for the configured duration and return
	// nil — for exercising timeouts and watchdogs.
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModePanic:
		return "panic"
	case ModeError:
		return "error"
	case ModeBudget:
		return "budget"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Spec configures an armed point.
type Spec struct {
	Mode Mode
	// Arg is mode-specific: the message for panic/error, the resource
	// name for budget (default vm-steps), ignored for delay.
	Arg string
	// Delay is the sleep for ModeDelay.
	Delay time.Duration
	// Count makes the point fire on the Count-th hit only (1 = first,
	// the default).  Earlier hits pass through; after firing the point
	// disarms itself so a recovered pipeline can run clean.  Negative
	// is sticky: fire on every hit, never self-disarm — a sustained
	// partition instead of a one-shot fault (clear with Disarm).
	Count int64
}

// Fault is the error/panic value an armed point injects.
type Fault struct {
	Point string
	Msg   string
}

func (f *Fault) Error() string {
	msg := f.Msg
	if msg == "" {
		msg = "injected fault"
	}
	return fmt.Sprintf("faultinject: %s at %s", msg, f.Point)
}

// armedCount gates every Hit: zero means no point anywhere is armed
// and Hit returns after one atomic load.
var armedCount atomic.Int64

var (
	mu     sync.Mutex
	points = map[string]*P{}
)

// P is one named fault point.  Obtain with Point; the zero value is
// not usable.
type P struct {
	name string
	spec atomic.Pointer[Spec]
	hits atomic.Int64
}

// Point registers (or returns the existing) fault point with the given
// name.  Call it from package-level var declarations so Names() is
// complete by the time tests enumerate it.
func Point(name string) *P {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p
	}
	p := &P{name: name}
	points[name] = p
	return p
}

// Name returns the point's registered name.
func (p *P) Name() string { return p.name }

// Hit is the governed-path call.  Disarmed it costs one atomic load.
// Armed, it counts the hit and — on the configured Count-th one —
// injects: panics (ModePanic), returns an error (ModeError/ModeBudget)
// or sleeps (ModeDelay).
func (p *P) Hit() error {
	if armedCount.Load() == 0 {
		return nil
	}
	spec := p.spec.Load()
	if spec == nil {
		return nil
	}
	n := p.hits.Add(1)
	if want := spec.Count; want >= 0 {
		if want == 0 {
			want = 1
		}
		if n != want {
			return nil
		}
		p.selfDisarm()
	}
	switch spec.Mode {
	case ModePanic:
		panic(&Fault{Point: p.name, Msg: spec.Arg})
	case ModeError:
		return &Fault{Point: p.name, Msg: spec.Arg}
	case ModeBudget:
		res := spec.Arg
		if res == "" {
			res = budget.ResourceSteps
		}
		return &budget.Error{Resource: res, Stage: p.name}
	case ModeDelay:
		time.Sleep(spec.Delay)
	}
	return nil
}

// HitPanic is Hit for sites that cannot return an error (fold, sched):
// error-shaped injections panic with the error value instead, to be
// converted back by the stage-boundary recover.
func (p *P) HitPanic() {
	if err := p.Hit(); err != nil {
		panic(err)
	}
}

// Arm installs spec on the point, replacing any previous arming.
func (p *P) Arm(spec Spec) {
	if prev := p.spec.Swap(&spec); prev == nil {
		armedCount.Add(1)
	}
	p.hits.Store(0)
}

// Disarm removes any arming from the point.
func (p *P) Disarm() {
	if prev := p.spec.Swap(nil); prev != nil {
		armedCount.Add(-1)
	}
	p.hits.Store(0)
}

// selfDisarm is the self-disarm after firing; unlike Disarm it keeps
// the hit counter (informational) and only drops the spec.
func (p *P) selfDisarm() {
	if prev := p.spec.Swap(nil); prev != nil {
		armedCount.Add(-1)
	}
}

// Armed reports whether the point currently has a spec installed.
func (p *P) Armed() bool { return p.spec.Load() != nil }

// Names lists every registered point, sorted.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DisarmAll clears every armed point (test cleanup).
func DisarmAll() {
	mu.Lock()
	defer mu.Unlock()
	for _, p := range points {
		p.Disarm()
	}
}

// ArmString arms one point from a "name=mode[:arg][:count]" spec.
func ArmString(s string) error {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("faultinject: bad spec %q (want name=mode[:arg][:count])", s)
	}
	parts := strings.Split(rest, ":")
	var spec Spec
	switch parts[0] {
	case "panic":
		spec.Mode = ModePanic
	case "error":
		spec.Mode = ModeError
	case "budget":
		spec.Mode = ModeBudget
	case "delay":
		spec.Mode = ModeDelay
		spec.Delay = 10 * time.Millisecond
	default:
		return fmt.Errorf("faultinject: unknown mode %q in %q", parts[0], s)
	}
	if len(parts) > 1 && parts[1] != "" {
		if spec.Mode == ModeDelay {
			d, err := time.ParseDuration(parts[1])
			if err != nil {
				return fmt.Errorf("faultinject: bad delay in %q: %v", s, err)
			}
			spec.Delay = d
		} else {
			spec.Arg = parts[1]
		}
	}
	if len(parts) > 2 && parts[2] != "" {
		n, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return fmt.Errorf("faultinject: bad count in %q: %v", s, err)
		}
		spec.Count = n
	}
	Point(name).Arm(spec)
	return nil
}

// ArmFromEnv arms every comma-separated spec in the value (typically
// os.Getenv("POLYPROF_FAULT")).  An empty value is a no-op.
func ArmFromEnv(value string) error {
	if value == "" {
		return nil
	}
	for _, s := range strings.Split(value, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		if err := ArmString(s); err != nil {
			return err
		}
	}
	return nil
}
