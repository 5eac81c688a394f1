package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Check("vm"); err != nil {
		t.Fatalf("nil Check = %v", err)
	}
	if err := b.CountEvents(1<<40, "vm"); err != nil {
		t.Fatalf("nil CountEvents = %v", err)
	}
	if !b.GrantShadow(1<<40) || !b.GrantEdges(1<<40) {
		t.Fatal("nil grants must always succeed")
	}
	if b.StepLimit() != 0 || len(b.Tripped()) != 0 {
		t.Fatal("nil budget reports limits")
	}
	if b.Context() == nil {
		t.Fatal("nil budget Context() = nil")
	}
}

func TestZeroLimitsAreUnlimited(t *testing.T) {
	b := New(context.Background(), Limits{})
	if err := b.Check("x"); err != nil {
		t.Fatalf("Check = %v", err)
	}
	if !b.GrantShadow(1 << 40) {
		t.Fatal("zero-limit grant refused")
	}
	if err := b.CountEvents(1<<40, "x"); err != nil {
		t.Fatalf("CountEvents = %v", err)
	}
	if !(Limits{}).Unlimited() {
		t.Fatal("zero Limits not Unlimited")
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{})
	if err := b.Check("vm"); err != nil {
		t.Fatalf("pre-cancel Check = %v", err)
	}
	cancel()
	err := b.Check("vm")
	be, ok := AsError(err)
	if !ok || be.Resource != ResourceCanceled || be.Stage != "vm" {
		t.Fatalf("post-cancel Check = %v", err)
	}
	if !be.Canceled() || be.Timeout() {
		t.Fatalf("classification wrong: %+v", be)
	}
}

func TestWallDeadline(t *testing.T) {
	b := New(context.Background(), Limits{Wall: time.Nanosecond})
	time.Sleep(2 * time.Millisecond)
	err := b.Check("fold")
	be, ok := AsError(err)
	if !ok || be.Resource != ResourceWall {
		t.Fatalf("Check after deadline = %v", err)
	}
	if !be.Timeout() {
		t.Fatal("wall error not Timeout()")
	}
}

func TestContextDeadlineWins(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	b := New(ctx, Limits{Wall: time.Hour})
	time.Sleep(2 * time.Millisecond)
	err := b.Check("vm")
	be, ok := AsError(err)
	if !ok || be.Resource != ResourceWall {
		t.Fatalf("expired ctx must report wall-clock, got %v", err)
	}
}

func TestTraceEvents(t *testing.T) {
	b := New(context.Background(), Limits{MaxTraceEvents: 100})
	if err := b.CountEvents(100, "vm"); err != nil {
		t.Fatalf("within limit: %v", err)
	}
	err := b.CountEvents(1, "vm")
	be, ok := AsError(err)
	if !ok || be.Resource != ResourceTraceEvents || be.Limit != 100 || be.Used != 101 {
		t.Fatalf("over limit = %v", err)
	}
}

func TestDegradingGrantsAreMonotone(t *testing.T) {
	b := New(context.Background(), Limits{MaxShadowBytes: 100, MaxDDGEdges: 2})
	if !b.GrantShadow(60) || !b.GrantShadow(40) {
		t.Fatal("grants within limit refused")
	}
	if b.GrantShadow(1) {
		t.Fatal("grant over limit allowed")
	}
	// Once tripped, even tiny requests fail: degradation is permanent.
	if b.GrantShadow(0) {
		t.Fatal("post-trip grant allowed")
	}
	if !b.GrantEdges(1) || !b.GrantEdges(1) || b.GrantEdges(1) {
		t.Fatal("edge grant sequence wrong")
	}
	got := b.Tripped()
	if len(got) != 2 || got[0] != ResourceShadowBytes || got[1] != ResourceDDGEdges {
		t.Fatalf("Tripped() = %v", got)
	}
	// Hard Check is unaffected by degrading trips.
	if err := b.Check("ddg"); err != nil {
		t.Fatalf("Check after degrading trip = %v", err)
	}
}

// TestShadowGrantAfterRelease: a release that brings the counter back
// below the limit lets a later grant succeed, but the refused bytes
// stay counted and the tripped latch stays set.
func TestShadowGrantAfterRelease(t *testing.T) {
	b := New(context.Background(), Limits{MaxShadowBytes: 100})
	if !b.GrantShadow(60) || !b.GrantShadow(40) {
		t.Fatal("grants within limit refused")
	}
	if b.GrantShadow(1) {
		t.Fatal("grant over limit allowed")
	}
	// Counter: 101 with the refused byte; the release leaves 41.
	b.ReleaseShadow(60)
	if !b.GrantShadow(1) {
		t.Fatal("grant after release refused")
	}
	if got := b.Tripped(); len(got) != 1 || got[0] != ResourceShadowBytes {
		t.Fatalf("Tripped() after release = %v, want [%s]", got, ResourceShadowBytes)
	}
	// 42 counted: 58 more fit, 59 do not.
	if !b.GrantShadow(58) || b.GrantShadow(1) {
		t.Fatal("refused byte not kept in the counter")
	}
}

func TestErrorFormattingAndAs(t *testing.T) {
	e := &Error{Resource: ResourceSteps, Stage: "vm", Limit: 1000, Used: 1001}
	msg := e.Error()
	for _, want := range []string{"vm-steps", "vm", "1000", "1001"} {
		if !contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	wrapped := errorsJoin(e)
	be, ok := AsError(wrapped)
	if !ok || be != e {
		t.Fatalf("AsError through wrap failed: %v", wrapped)
	}
}

func errorsJoin(e error) error { return errors.Join(errors.New("outer"), e) }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
