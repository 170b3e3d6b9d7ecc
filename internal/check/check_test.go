package check

import (
	"strings"
	"testing"
)

func TestVerifyAcceptsSerialHistory(t *testing.T) {
	var h History
	h.Record(Event{When: 1, Op: OpInsert, Key: 5, Val: 50, Found: true})
	h.Record(Event{When: 2, Op: OpLookup, Key: 5, Found: true, Got: 50})
	h.Record(Event{When: 3, Op: OpDelete, Key: 5, Found: true})
	h.Record(Event{When: 4, Op: OpLookup, Key: 5, Found: false})
	if err := h.Verify(nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyUsesTimeOrderNotRecordOrder(t *testing.T) {
	var h History
	// Recorded out of order (per-proc append order), correct in time order.
	h.Record(Event{When: 20, Op: OpLookup, Key: 1, Found: true, Got: 7})
	h.Record(Event{When: 10, Op: OpInsert, Key: 1, Val: 7, Found: true})
	if err := h.Verify(nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesStaleRead(t *testing.T) {
	var h History
	h.Record(Event{When: 1, Op: OpInsert, Key: 1, Val: 7, Found: true})
	h.Record(Event{When: 2, Op: OpLookup, Key: 1, Found: false}) // lost update!
	if err := h.Verify(nil); err == nil {
		t.Fatal("stale read not detected")
	}
}

func TestVerifyCatchesWrongValue(t *testing.T) {
	var h History
	h.Record(Event{When: 1, Op: OpInsert, Key: 1, Val: 7, Found: true})
	h.Record(Event{When: 2, Op: OpLookup, Key: 1, Found: true, Got: 9})
	if err := h.Verify(nil); err == nil {
		t.Fatal("wrong lookup value not detected")
	}
}

func TestVerifyCatchesDoubleInsert(t *testing.T) {
	var h History
	h.Record(Event{When: 1, Op: OpInsert, Key: 1, Val: 7, Found: true})
	h.Record(Event{When: 2, Op: OpInsert, Key: 1, Val: 8, Found: true}) // should be an update
	if err := h.Verify(nil); err == nil {
		t.Fatal("double 'new' insert not detected")
	}
}

func TestVerifyCatchesGhostDelete(t *testing.T) {
	var h History
	h.Record(Event{When: 1, Op: OpDelete, Key: 9, Found: true})
	if err := h.Verify(nil); err == nil {
		t.Fatal("delete of a missing key reported success undetected")
	}
}

func TestVerifyRespectsInitialState(t *testing.T) {
	var h History
	h.Record(Event{When: 1, Op: OpLookup, Key: 3, Found: true, Got: 30})
	if err := h.Verify(map[int64]int64{3: 30}); err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(nil); err == nil {
		t.Fatal("initial state ignored")
	}
}

func TestFinalReplays(t *testing.T) {
	var h History
	h.Record(Event{When: 2, Op: OpDelete, Key: 1, Found: true})
	h.Record(Event{When: 1, Op: OpInsert, Key: 2, Val: 5, Found: true})
	got := h.Final(map[int64]int64{1: 10})
	if len(got) != 1 || got[2] != 5 {
		t.Fatalf("Final = %v, want {2:5}", got)
	}
}

func TestKindString(t *testing.T) {
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" || OpLookup.String() != "lookup" {
		t.Fatal("Kind strings changed")
	}
}

// TestVerifyEdgeCases drives the checker through the corner cases a fuzzing
// harness leans on: empty histories, lookup-only divergences, and duplicate
// virtual-time stamps resolved by record order.
func TestVerifyEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		events  []Event
		initial map[int64]int64
		wantErr bool
	}{
		{
			name: "empty history passes trivially",
		},
		{
			name:    "empty history with initial state passes",
			initial: map[int64]int64{1: 10, 2: 20},
		},
		{
			name: "lookup-only divergence: phantom presence",
			events: []Event{
				{When: 1, Op: OpLookup, Key: 7, Found: true, Got: 70},
			},
			wantErr: true,
		},
		{
			name:    "lookup-only divergence: phantom absence",
			initial: map[int64]int64{7: 70},
			events: []Event{
				{When: 1, Op: OpLookup, Key: 7, Found: false},
			},
			wantErr: true,
		},
		{
			name: "duplicate When ties replay in record order",
			events: []Event{
				// Both stamped t=5: a serial replay only works in record
				// order (insert before lookup), which the stable sort keeps.
				{When: 5, Op: OpInsert, Key: 1, Val: 9, Found: true},
				{When: 5, Op: OpLookup, Key: 1, Found: true, Got: 9},
			},
		},
		{
			name: "duplicate When ties do not reorder to salvage a history",
			events: []Event{
				// Record order is lookup-then-insert; the lookup claims to
				// see the insert's value, which no stable replay allows.
				{When: 5, Op: OpLookup, Key: 1, Found: true, Got: 9},
				{When: 5, Op: OpInsert, Key: 1, Val: 9, Found: true},
			},
			wantErr: true,
		},
		{
			name: "insert reporting update on a fresh key",
			events: []Event{
				{When: 1, Op: OpInsert, Key: 3, Val: 1, Found: false},
			},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h History
			for _, e := range tc.events {
				h.Record(e)
			}
			err := h.Verify(tc.initial)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Verify = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestVerifyObjects(t *testing.T) {
	var h History
	// Same key on two objects: independent models.
	h.Record(Event{When: 1, Obj: 0, Op: OpInsert, Key: 1, Val: 10, Found: true})
	h.Record(Event{When: 2, Obj: 1, Op: OpLookup, Key: 1, Found: false})
	h.Record(Event{When: 3, Obj: 1, Op: OpInsert, Key: 1, Val: 20, Found: true})
	h.Record(Event{When: 4, Obj: 0, Op: OpLookup, Key: 1, Found: true, Got: 10})
	if err := h.VerifyObjects(nil); err != nil {
		t.Fatal(err)
	}
	// Verify (single-object) must reject the same history: obj 1's lookup at
	// t=2 misses a key obj 0 inserted at t=1.
	if err := h.Verify(nil); err == nil {
		t.Fatal("single-object Verify conflated objects without error")
	}

	fin := h.FinalObjects(nil)
	if fin[0][1] != 10 || fin[1][1] != 20 {
		t.Fatalf("FinalObjects = %v, want obj0{1:10} obj1{1:20}", fin)
	}
}

func TestVerifyObjectsInitialState(t *testing.T) {
	var h History
	h.Record(Event{When: 1, Obj: 2, Op: OpDelete, Key: 5, Found: true})
	if err := h.VerifyObjects(map[int]map[int64]int64{2: {5: 50}}); err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyObjects(nil); err == nil {
		t.Fatal("per-object initial state ignored")
	}
}

func TestVerifyErrorIncludesRepro(t *testing.T) {
	var h History
	h.SetRepro("mc1:scheme=opt-slr;lock=mcs;seed=0xdead")
	h.Record(Event{When: 1, Op: OpLookup, Key: 1, Found: true, Got: 1})
	err := h.Verify(nil)
	if err == nil {
		t.Fatal("expected violation")
	}
	if want := "mc1:scheme=opt-slr;lock=mcs;seed=0xdead"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q missing repro %q", err, want)
	}
	// Without a repro string the message must not grow an empty suffix.
	var h2 History
	h2.Record(Event{When: 1, Op: OpLookup, Key: 1, Found: true, Got: 1})
	if err2 := h2.Verify(nil); err2 == nil || strings.Contains(err2.Error(), "[repro") {
		t.Fatalf("repro suffix leaked into plain error: %v", err2)
	}
}

// TestErrorStringsPinned pins the exact divergence text of Verify and
// VerifyObjects: violation details flow verbatim into model-checker
// campaign JSON, so any change to them changes pinned artifacts.
func TestErrorStringsPinned(t *testing.T) {
	var h History
	h.SetRepro("r1")
	h.Record(Event{When: 3, Proc: 0, Op: OpLookup, Key: 5, Found: true, Got: 7})
	h.Record(Event{When: 2, Proc: 1, Op: OpInsert, Key: 5, Val: 50, Found: true})
	var objs History
	objs.Record(Event{When: 4, Proc: 2, Obj: 1, Op: OpDelete, Key: 9, Found: true})
	var bad History
	bad.Record(Event{When: 1, Op: Kind(9)})
	for _, c := range []struct {
		err  error
		want string
	}{
		{h.Verify(nil), "check: event 1 (t=3 proc=0) lookup(5): returned 7 but model holds 50 [repro r1]"},
		{objs.VerifyObjects(nil), "check: event 0 (t=4 proc=2 obj=1) delete(9): reported present=true but model says false"},
		{bad.Verify(nil), "check: event 0 (t=1 proc=0) has unknown kind kind(9)"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("got %v\nwant %s", c.err, c.want)
		}
	}
}
