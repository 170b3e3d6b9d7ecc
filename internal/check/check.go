// Package check provides a serializability checker for critical-section
// histories. Benchmark and test workloads record one Event per completed
// operation, stamped with the virtual time of its linearization point (the
// commit of its transaction or the release of its lock). Because critical
// sections under every scheme are atomic, the history must be equivalent to
// executing the operations sequentially in linearization-time order; Verify
// replays them against a sequential model and reports the first divergence.
//
// Within one simulated machine, virtual-time order of linearization points
// is a total order (ties cannot happen between two critical sections that
// touch the same data: one's commit conflicts with the other), so the check
// is exact, not heuristic. Events that carry equal When stamps (possible for
// critical sections over disjoint data, or several events from one critical
// section) are replayed in record order: the sort is stable, and under the
// simulator's single-runner invariant record order is actual execution
// order, so the tie-break is the order the machine really took.
//
// Invariants: a History is recorded from simulated bodies under the
// machine's single-runner invariant (at most one proc executes at a time),
// so Record needs no locking; Verify runs on the host after Run returns and
// is a pure, deterministic function of the recorded events — checking a
// history never perturbs simulated results.
package check

import (
	"fmt"
	"sort"
)

// Kind is the operation type of an event.
type Kind int8

// Operation kinds for map-like data structures.
const (
	OpInsert Kind = iota + 1
	OpDelete
	OpLookup
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpLookup:
		return "lookup"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one completed operation.
type Event struct {
	// When is the operation's linearization point in virtual time.
	When uint64
	// Proc is the simulated thread that executed it.
	Proc int
	// Obj identifies which object (container) the operation targeted, for
	// histories spanning several data structures guarded by one lock. Plain
	// single-object histories leave it zero.
	Obj int
	// Op is the operation kind.
	Op Kind
	// Key is the operated key.
	Key int64
	// Val is the value written (inserts only).
	Val int64
	// Found is the operation's boolean result: "was new" for inserts,
	// "was present" for deletes and lookups.
	Found bool
	// Got is the value a successful lookup returned.
	Got int64
}

// History collects events from a single machine's run. It is not
// synchronized: the simulator's single-runner execution makes plain appends
// safe, exactly like the rest of the simulated state.
type History struct {
	events []Event
	repro  string
}

// Record appends one event.
func (h *History) Record(e Event) {
	h.events = append(h.events, e)
}

// Len returns the number of recorded events.
func (h *History) Len() int { return len(h.events) }

// SetRepro attaches a reproducer string (the {seed, config} token a fuzzing
// harness would replay) that Verify appends to any error it reports, so a
// failure message alone is enough to rerun the exact failing case.
func (h *History) SetRepro(s string) { h.repro = s }

// sorted returns a copy of the events in linearization order. The sort is
// stable: When-ties replay in record order, which under the single-runner
// invariant is execution order.
func (h *History) sorted() []Event {
	events := make([]Event, len(h.events))
	copy(events, h.events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].When < events[j].When })
	return events
}

// errf formats a divergence error, appending the reproducer string if set.
func (h *History) errf(format string, args ...any) error {
	if h.repro != "" {
		format += " [repro %s]"
		args = append(args, h.repro)
	}
	return fmt.Errorf(format, args...)
}

// Verify replays the history in linearization order against a sequential
// map model seeded with initial, returning an error describing the first
// operation whose result is inconsistent with a serial execution. Event.Obj
// is ignored: all events replay against the one model.
func (h *History) Verify(initial map[int64]int64) error {
	return h.verify(func(Event) map[int64]int64 { return cloneModel(initial) }, false)
}

// VerifyObjects replays a multi-object history: each event replays against
// the sequential model for its Obj, seeded from initial[Obj] (missing
// objects start empty). A violation on any object fails the whole history.
func (h *History) VerifyObjects(initial map[int]map[int64]int64) error {
	return h.verify(func(e Event) map[int64]int64 { return cloneModel(initial[e.Obj]) }, true)
}

// verify is the shared replay loop. seed builds the initial model for an
// event's object the first time that object appears.
func (h *History) verify(seed func(Event) map[int64]int64, byObj bool) error {
	models := make(map[int]map[int64]int64)
	for i, e := range h.sorted() {
		obj := 0
		if byObj {
			obj = e.Obj
		}
		model, ok := models[obj]
		if !ok {
			model = seed(e)
			models[obj] = model
		}
		switch e.Op {
		case OpInsert:
			_, existed := model[e.Key]
			if e.Found == existed {
				return h.diverged(i, e, byObj, "insert(%d): reported new=%v but model says existed=%v",
					e.Key, e.Found, existed)
			}
			model[e.Key] = e.Val
		case OpDelete:
			_, existed := model[e.Key]
			if e.Found != existed {
				return h.diverged(i, e, byObj, "delete(%d): reported present=%v but model says %v",
					e.Key, e.Found, existed)
			}
			delete(model, e.Key)
		case OpLookup:
			v, existed := model[e.Key]
			if e.Found != existed {
				return h.diverged(i, e, byObj, "lookup(%d): reported present=%v but model says %v",
					e.Key, e.Found, existed)
			}
			if existed && e.Got != v {
				return h.diverged(i, e, byObj, "lookup(%d): returned %d but model holds %d",
					e.Key, e.Got, v)
			}
		default:
			return h.diverged(i, e, byObj, "has unknown kind %v", e.Op)
		}
	}
	return nil
}

// diverged formats the error for the i'th replayed event, e. The event's
// position is rendered only here, on the failure path: replaying a passing
// history formats nothing.
func (h *History) diverged(i int, e Event, byObj bool, format string, args ...any) error {
	where := fmt.Sprintf("event %d (t=%d proc=%d)", i, e.When, e.Proc)
	if byObj {
		where = fmt.Sprintf("event %d (t=%d proc=%d obj=%d)", i, e.When, e.Proc, e.Obj)
	}
	return h.errf("check: %s "+format, append([]any{where}, args...)...)
}

// Final returns the model state after replaying the full history (for
// comparing against the data structure's actual final contents). Event.Obj
// is ignored.
func (h *History) Final(initial map[int64]int64) map[int64]int64 {
	model := cloneModel(initial)
	for _, e := range h.sorted() {
		applyFinal(model, e)
	}
	return model
}

// FinalObjects returns the per-object model states after replaying a
// multi-object history, keyed by Event.Obj. Objects absent from initial
// start empty; objects present in initial but never operated on are
// returned unchanged.
func (h *History) FinalObjects(initial map[int]map[int64]int64) map[int]map[int64]int64 {
	models := make(map[int]map[int64]int64, len(initial))
	for obj, m := range initial {
		models[obj] = cloneModel(m)
	}
	for _, e := range h.sorted() {
		model, ok := models[e.Obj]
		if !ok {
			model = make(map[int64]int64)
			models[e.Obj] = model
		}
		applyFinal(model, e)
	}
	return models
}

func applyFinal(model map[int64]int64, e Event) {
	switch e.Op {
	case OpInsert:
		model[e.Key] = e.Val
	case OpDelete:
		delete(model, e.Key)
	}
}

func cloneModel(m map[int64]int64) map[int64]int64 {
	c := make(map[int64]int64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
