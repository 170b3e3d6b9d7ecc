package obs

import (
	"fmt"
	"io"
	"strings"
)

// traceCap bounds a Tracer's memory: events past it are counted, not kept.
const traceCap = 1 << 20

// Event is one event a Tracer recorded.
type Event struct {
	When uint64
	Proc int
	Kind Kind
	// Cause names an abort's cause (htm.Cause.String(); KindAbort only).
	Cause string
}

// Tracer records a run's transaction and lock events from the collector's
// feed and renders them as an ASCII swimlane timeline — the visual
// counterpart of §4's serialization-dynamics analysis — or, through
// ChromeTraceEvents, as Perfetto slices. A lemming cascade is immediately
// visible: a column of aborts followed by long lock-held spans on every
// lane. Attach it with Collector.AddObserver.
//
// Invariants: the feed arrives from the simulated machine's single runner,
// so the tracer needs no locking and its event sequence is a deterministic
// function of the machine seed. Lock-wait events are not recorded: the
// tracer shows ownership, not intent. A nil *Tracer records nothing.
type Tracer struct {
	events  []Event
	limit   int
	dropped int
}

var (
	_ TxObserver      = (*Tracer)(nil)
	_ AttemptObserver = (*Tracer)(nil)
)

// NewTracer creates a tracer that keeps the first 1<<20 events and counts
// the rest.
func NewTracer() *Tracer { return &Tracer{limit: traceCap} }

// record keeps ev, or counts it as dropped once the tracer is full.
func (t *Tracer) record(ev Event) {
	if t == nil {
		return
	}
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// ObserveTxBegin implements AttemptObserver.
func (t *Tracer) ObserveTxBegin(when uint64, tid int) {
	t.record(Event{When: when, Proc: tid, Kind: KindTxBegin})
}

// ObserveCommit implements TxObserver.
func (t *Tracer) ObserveCommit(when uint64, tid int) {
	t.record(Event{When: when, Proc: tid, Kind: KindCommit})
}

// ObserveAbort implements TxObserver.
func (t *Tracer) ObserveAbort(ev AbortEvent) {
	t.record(Event{When: ev.When, Proc: ev.Tid, Kind: KindAbort, Cause: ev.Cause})
}

// ObserveLock implements TxObserver; wait events are skipped.
func (t *Tracer) ObserveLock(ev LockEvent) {
	if ev.Wait {
		return
	}
	t.record(Event{When: ev.When, Proc: ev.Tid, Kind: ev.Kind()})
}

// ObserveOp implements TxObserver.
func (t *Tracer) ObserveOp(when uint64, tid int, spec, auxUsed bool) {}

// ObserveLockLines implements TxObserver.
func (t *Tracer) ObserveLockLines(lines []int) {}

// ObserveFinish implements TxObserver.
func (t *Tracer) ObserveFinish(totalCycles uint64) {}

// Events returns a copy of the recorded events, safe to hold or modify
// while the tracer keeps recording.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.events) == 0 {
		return nil
	}
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns the number of events that arrived after the tracer was
// full and were not recorded.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Timeline renders the window [from, to) as an ASCII swimlane per proc,
// with cols columns of (to-from)/cols cycles each. Cell glyphs, by
// priority: 'L' a lock acquire, 'u' a lock release, 'a' an aux-lock
// acquire, 'v' an aux-lock release, 'x' an abort, 'c' a commit, 'b' a
// begin, '.' nothing.
func (t *Tracer) Timeline(w io.Writer, procs int, from, to uint64, cols int) {
	if t == nil || cols <= 0 || to <= from {
		return
	}
	width := (to - from + uint64(cols) - 1) / uint64(cols)
	if width == 0 {
		width = 1
	}
	grid := make([][]byte, procs)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", cols))
	}
	prio := func(g byte) int {
		switch g {
		case 'L':
			return 7
		case 'u':
			return 6
		case 'a':
			return 5
		case 'v':
			return 4
		case 'x':
			return 3
		case 'c':
			return 2
		case 'b':
			return 1
		default:
			return 0
		}
	}
	for _, e := range t.events {
		if e.When < from || e.When >= to || e.Proc < 0 || e.Proc >= procs {
			continue
		}
		col := int((e.When - from) / width)
		if col >= cols {
			col = cols - 1
		}
		var g byte
		switch e.Kind {
		case KindTxBegin:
			g = 'b'
		case KindCommit:
			g = 'c'
		case KindAbort:
			g = 'x'
		case KindLockAcquire:
			g = 'L'
		case KindLockRelease:
			g = 'u'
		case KindAuxAcquire:
			g = 'a'
		case KindAuxRelease:
			g = 'v'
		default:
			continue
		}
		if prio(g) > prio(grid[e.Proc][col]) {
			grid[e.Proc][col] = g
		}
	}
	fmt.Fprintf(w, "timeline %d..%d cycles (%d cycles/col; b=begin c=commit x=abort L=lock u=unlock a=aux-lock v=aux-unlock)\n", from, to, width)
	for i, lane := range grid {
		fmt.Fprintf(w, "  p%-2d %s\n", i, lane)
	}
}

// Counts tallies the recorded events by kind.
func (t *Tracer) Counts() map[Kind]int {
	out := map[Kind]int{}
	if t == nil {
		return out
	}
	for _, e := range t.events {
		out[e.Kind]++
	}
	return out
}
