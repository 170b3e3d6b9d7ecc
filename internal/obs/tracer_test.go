package obs

import (
	"strings"
	"testing"
)

// feed drives tr the way the collector does: through the observer method
// that matches the kind.
func feed(tr *Tracer, when uint64, proc int, k Kind) {
	switch k {
	case KindTxBegin:
		tr.ObserveTxBegin(when, proc)
	case KindCommit:
		tr.ObserveCommit(when, proc)
	case KindAbort:
		tr.ObserveAbort(AbortEvent{When: when, Tid: proc, Cause: "conflict"})
	default:
		tr.ObserveLock(LockEvent{
			When:    when,
			Tid:     proc,
			Aux:     k == KindAuxWait || k == KindAuxAcquire || k == KindAuxRelease,
			Release: k == KindLockRelease || k == KindAuxRelease,
			Wait:    k == KindLockWait || k == KindAuxWait,
		})
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	feed(tr, 1, 0, KindTxBegin)
	if tr.Len() != 0 || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer misbehaved")
	}
}

func TestEmitAndCounts(t *testing.T) {
	tr := NewTracer()
	feed(tr, 1, 0, KindTxBegin)
	feed(tr, 2, 0, KindAbort)
	feed(tr, 3, 1, KindTxBegin)
	feed(tr, 4, 1, KindCommit)
	c := tr.Counts()
	if c[KindTxBegin] != 2 || c[KindAbort] != 1 || c[KindCommit] != 1 {
		t.Fatalf("counts = %v", c)
	}
	if ev := tr.Events()[1]; ev.Cause != "conflict" || ev.Proc != 0 || ev.When != 2 {
		t.Fatalf("abort recorded as %+v", ev)
	}
}

func TestLimitBoundsMemory(t *testing.T) {
	tr := NewTracer()
	if tr.limit != traceCap {
		t.Fatalf("limit = %d, want %d", tr.limit, traceCap)
	}
	tr.limit = 3
	for i := 0; i < 10; i++ {
		feed(tr, uint64(i), 0, KindTxBegin)
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
	if last := tr.Events()[2].When; last != 2 {
		t.Fatalf("kept event at %d, want the first three", last)
	}
}

// TestTracerSkipsLockWaits: lock waits mark intent, not ownership, so they
// are neither recorded nor counted against the cap.
func TestTracerSkipsLockWaits(t *testing.T) {
	tr := NewTracer()
	tr.limit = 2
	feed(tr, 1, 0, KindLockWait)
	feed(tr, 2, 0, KindAuxWait)
	feed(tr, 3, 0, KindLockAcquire)
	feed(tr, 4, 0, KindLockRelease)
	if tr.Len() != 2 || tr.Dropped() != 0 {
		t.Fatalf("len %d dropped %d, want 2 and 0", tr.Len(), tr.Dropped())
	}
}

func TestTimelineRendersGlyphs(t *testing.T) {
	tr := NewTracer()
	feed(tr, 10, 0, KindTxBegin)
	feed(tr, 20, 0, KindAbort)
	feed(tr, 30, 1, KindLockAcquire)
	feed(tr, 90, 1, KindCommit)
	var sb strings.Builder
	tr.Timeline(&sb, 2, 0, 100, 10)
	out := sb.String()
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p1") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "x") || !strings.Contains(out, "L") || !strings.Contains(out, "c") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
	// Priority: an abort in the same cell as a begin renders as 'x'.
	lane0 := out[strings.Index(out, "p0"):]
	lane0 = lane0[:strings.Index(lane0, "\n")]
	if strings.Count(lane0, "b")+strings.Count(lane0, "x") != 2 {
		t.Fatalf("lane 0 glyphs wrong: %s", lane0)
	}
}

func TestTimelineEmptyWindow(t *testing.T) {
	tr := NewTracer()
	var sb strings.Builder
	tr.Timeline(&sb, 1, 100, 100, 10) // empty window: no output, no panic
	tr.Timeline(&sb, 1, 0, 100, 0)
	if sb.Len() != 0 {
		t.Fatalf("unexpected output: %q", sb.String())
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	tr := NewTracer()
	feed(tr, 1, 0, KindTxBegin)
	evs := tr.Events()
	evs[0].Kind = KindAbort
	if c := tr.Counts(); c[KindTxBegin] != 1 || c[KindAbort] != 0 {
		t.Fatalf("mutating Events() leaked into the tracer: %v", c)
	}
	feed(tr, 2, 0, KindCommit)
	if len(evs) != 1 {
		t.Fatal("earlier snapshot grew with later events")
	}
}

func TestTimelineUnlockGlyph(t *testing.T) {
	tr := NewTracer()
	feed(tr, 10, 0, KindLockRelease)
	var sb strings.Builder
	tr.Timeline(&sb, 1, 0, 100, 10)
	if out := sb.String(); !strings.Contains(out, "u") || !strings.Contains(out, "u=unlock") {
		t.Fatalf("release not rendered as 'u':\n%s", out)
	}
	// Priority: release outranks abort/commit/begin in a shared cell but
	// yields to an acquire.
	tr2 := NewTracer()
	feed(tr2, 10, 0, KindAbort)
	feed(tr2, 11, 0, KindLockRelease)
	feed(tr2, 50, 0, KindLockRelease)
	feed(tr2, 51, 0, KindLockAcquire)
	sb.Reset()
	tr2.Timeline(&sb, 1, 0, 100, 10)
	lane := sb.String()[strings.Index(sb.String(), "p0"):]
	if !strings.Contains(lane, "u") || !strings.Contains(lane, "L") || strings.Contains(lane, "x") {
		t.Fatalf("priority wrong: %s", lane)
	}
}

func TestTimelineWindowEdges(t *testing.T) {
	tr := NewTracer()
	feed(tr, 100, 0, KindAbort) // exactly at `to`: excluded (window is [from, to))
	feed(tr, 99, 0, KindCommit) // last cycle inside: included
	feed(tr, 50, 3, KindAbort)  // Proc beyond the lane count: skipped
	feed(tr, 50, -1, KindAbort) // negative Proc: skipped
	var sb strings.Builder
	tr.Timeline(&sb, 1, 0, 100, 10)
	out := sb.String()
	lane := out[strings.Index(out, "p0"):]
	if strings.Contains(lane, "x") {
		t.Fatalf("out-of-window or out-of-lane event rendered:\n%s", out)
	}
	if !strings.Contains(lane, "c") {
		t.Fatalf("in-window event missing:\n%s", out)
	}
}

func TestTimelineMoreColsThanCycles(t *testing.T) {
	// Span 4 cycles over 10 columns: width clamps to 1 and events land in
	// their own columns without panicking.
	tr := NewTracer()
	feed(tr, 0, 0, KindTxBegin)
	feed(tr, 3, 0, KindCommit)
	var sb strings.Builder
	tr.Timeline(&sb, 1, 0, 4, 10)
	out := sb.String()
	if !strings.Contains(out, "1 cycles/col") {
		t.Fatalf("width not clamped to 1:\n%s", out)
	}
	if !strings.Contains(out, "b..c") {
		t.Fatalf("events misplaced:\n%s", out)
	}
}

func TestNilTracerTimelineAndCounts(t *testing.T) {
	var tr *Tracer
	var sb strings.Builder
	tr.Timeline(&sb, 2, 0, 100, 10)
	if sb.Len() != 0 {
		t.Fatalf("nil tracer rendered: %q", sb.String())
	}
	if c := tr.Counts(); len(c) != 0 {
		t.Fatalf("nil tracer counted: %v", c)
	}
}

// TestKindStrings pins the names the flight recorder's chronicle prints.
func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindTxBegin: "tx-begin", KindCommit: "commit", KindAbort: "abort",
		KindLockWait: "lock-wait", KindLockAcquire: "lock-acquire", KindLockRelease: "lock-release",
		KindAuxWait: "aux-wait", KindAuxAcquire: "aux-acquire", KindAuxRelease: "aux-release",
		Kind(42): "kind(42)",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", uint8(k), k.String(), want)
		}
	}
}

// TestLockEventKind: every flag combination the collector reports maps to
// its own kind.
func TestLockEventKind(t *testing.T) {
	for _, c := range []struct {
		ev   LockEvent
		want Kind
	}{
		{LockEvent{}, KindLockAcquire},
		{LockEvent{Release: true}, KindLockRelease},
		{LockEvent{Wait: true}, KindLockWait},
		{LockEvent{Aux: true}, KindAuxAcquire},
		{LockEvent{Aux: true, Release: true}, KindAuxRelease},
		{LockEvent{Aux: true, Wait: true}, KindAuxWait},
	} {
		if got := c.ev.Kind(); got != c.want {
			t.Errorf("%+v.Kind() = %v, want %v", c.ev, got, c.want)
		}
	}
}
