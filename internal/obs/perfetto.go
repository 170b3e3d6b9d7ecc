package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// TraceEvent is one Chrome trace-event object — the JSON Array Format that
// chrome://tracing and ui.perfetto.dev both load. Ts is in microseconds by
// convention; we map one virtual cycle to one microsecond, so Perfetto's
// time axis reads directly in cycles.
type TraceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
	// Cat and ID are required on flow events (ph "s"/"f"): events with the
	// same cat+id form one flow arrow in the Perfetto UI.
	Cat string `json:"cat,omitempty"`
	ID  string `json:"id,omitempty"`
	// BP set to "e" on a flow finish binds the arrow to the slice *ending*
	// at Ts (the aborted transaction) instead of the next one beginning.
	BP string `json:"bp,omitempty"`
}

// ChromeTraceEvents converts a Tracer's events into Chrome trace-event
// objects: transactions and lock-held spans become B/E duration pairs per
// simulated thread, aborts additionally become thread-scoped instant
// markers carrying their cause, and each thread gets a metadata name record.
func ChromeTraceEvents(events []Event) []TraceEvent {
	// Sort a copy by time (stable, so same-cycle events keep emit order);
	// Chrome's importer requires nondecreasing ts within each (pid, tid).
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].When < evs[j].When })

	out := make([]TraceEvent, 0, len(evs)+8)
	// open tracks each thread's stack of open duration spans ("tx", "lock")
	// so B/E pairs stay balanced even on truncated traces.
	open := map[int][]string{}
	seen := map[int]bool{}
	var maxTs uint64

	push := func(tid int, ts uint64, name string) {
		open[tid] = append(open[tid], name)
		out = append(out, TraceEvent{Name: name, Ph: "B", Ts: ts, Pid: 0, Tid: tid})
	}
	// pop closes the innermost open span iff it has the expected name,
	// reporting whether it did.
	pop := func(tid int, ts uint64, name string, args map[string]any) bool {
		st := open[tid]
		if len(st) == 0 || st[len(st)-1] != name {
			return false
		}
		open[tid] = st[:len(st)-1]
		out = append(out, TraceEvent{Name: name, Ph: "E", Ts: ts, Pid: 0, Tid: tid, Args: args})
		return true
	}

	for _, e := range evs {
		if e.When > maxTs {
			maxTs = e.When
		}
		seen[e.Proc] = true
		switch e.Kind {
		case KindTxBegin:
			push(e.Proc, e.When, "tx")
		case KindCommit:
			if !pop(e.Proc, e.When, "tx", map[string]any{"outcome": "commit"}) {
				out = append(out, TraceEvent{Name: "commit", Ph: "i", Ts: e.When, Pid: 0, Tid: e.Proc, Scope: "t"})
			}
		case KindAbort:
			pop(e.Proc, e.When, "tx", map[string]any{"outcome": "abort", "cause": e.Cause})
			out = append(out, TraceEvent{
				Name: "abort", Ph: "i", Ts: e.When, Pid: 0, Tid: e.Proc,
				Scope: "t", Args: map[string]any{"cause": e.Cause},
			})
		case KindLockAcquire:
			push(e.Proc, e.When, "lock")
		case KindLockRelease:
			if !pop(e.Proc, e.When, "lock", nil) {
				out = append(out, TraceEvent{Name: "unlock", Ph: "i", Ts: e.When, Pid: 0, Tid: e.Proc, Scope: "t"})
			}
		case KindAuxAcquire:
			push(e.Proc, e.When, "aux")
		case KindAuxRelease:
			if !pop(e.Proc, e.When, "aux", nil) {
				out = append(out, TraceEvent{Name: "aux-unlock", Ph: "i", Ts: e.When, Pid: 0, Tid: e.Proc, Scope: "t"})
			}
		}
	}

	// Close spans left open by a truncated trace so every B has its E.
	tids := make([]int, 0, len(open))
	for tid := range open {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		for st := open[tid]; len(st) > 0; st = st[:len(st)-1] {
			out = append(out, TraceEvent{
				Name: st[len(st)-1], Ph: "E", Ts: maxTs, Pid: 0, Tid: tid,
				Args: map[string]any{"outcome": "truncated"},
			})
		}
	}

	// Thread-name metadata so lanes read "proc N" in the UI.
	for _, tid := range sortedKeys(seen) {
		out = append(out, TraceEvent{
			Name: "thread_name", Ph: "M", Ts: 0, Pid: 0, Tid: tid,
			Args: map[string]any{"name": "proc " + strconv.Itoa(tid)},
		})
	}
	return out
}

// WriteChromeTrace writes the events as a Chrome trace-event JSON array.
func WriteChromeTrace(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeTraceEvents(events))
}

// WriteChromeTraceFlows writes the events as a Chrome trace-event JSON array
// with extra pre-built events (typically abort-causality flow arrows from
// causality.FlowEvents) appended, so cascades render as arrows from the
// aborter's slice to the victim's aborting transaction.
func WriteChromeTraceFlows(w io.Writer, events []Event, extra []TraceEvent) error {
	all := ChromeTraceEvents(events)
	all = append(all, extra...)
	enc := json.NewEncoder(w)
	return enc.Encode(all)
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[int]bool) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
