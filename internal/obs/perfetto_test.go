package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// sampleEvents is a small run: proc 0 commits a tx, proc 1 aborts one and
// then takes the lock, proc 2 has a tx still open when the trace ends.
func sampleEvents() []Event {
	return []Event{
		{When: 10, Proc: 0, Kind: KindTxBegin},
		{When: 30, Proc: 1, Kind: KindTxBegin},
		{When: 40, Proc: 0, Kind: KindCommit},
		{When: 50, Proc: 1, Kind: KindAbort, Cause: "conflict"},
		{When: 60, Proc: 1, Kind: KindLockAcquire},
		{When: 90, Proc: 1, Kind: KindLockRelease},
		{When: 95, Proc: 2, Kind: KindTxBegin},
	}
}

// TestChromeTraceSchema validates the export against the Chrome trace-event
// JSON schema the issue specifies: an array of objects each carrying name,
// ph, ts, pid and tid.
func TestChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	var objs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &objs); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	if len(objs) == 0 {
		t.Fatal("empty export")
	}
	for i, o := range objs {
		if _, ok := o["name"].(string); !ok {
			t.Fatalf("event %d: name missing or not a string: %v", i, o)
		}
		ph, ok := o["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event %d: ph missing: %v", i, o)
		}
		if _, ok := o["ts"].(float64); !ok { // JSON numbers decode as float64
			t.Fatalf("event %d: ts missing or not a number: %v", i, o)
		}
		if _, ok := o["pid"].(float64); !ok {
			t.Fatalf("event %d: pid missing: %v", i, o)
		}
		if _, ok := o["tid"].(float64); !ok {
			t.Fatalf("event %d: tid missing: %v", i, o)
		}
	}
}

// TestChromeTraceSpansBalanced checks every B has a matching E per thread,
// including the tx still open at the end of the trace.
func TestChromeTraceSpansBalanced(t *testing.T) {
	evs := ChromeTraceEvents(sampleEvents())
	depth := map[int]int{}
	for _, e := range evs {
		switch e.Ph {
		case "B":
			depth[e.Tid]++
		case "E":
			depth[e.Tid]--
			if depth[e.Tid] < 0 {
				t.Fatalf("unmatched E on tid %d", e.Tid)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %d left %d spans open", tid, d)
		}
	}
	// The truncated proc-2 tx must be closed at the trace's last timestamp.
	var closedAtEnd bool
	for _, e := range evs {
		if e.Tid == 2 && e.Ph == "E" && e.Ts == 95 {
			closedAtEnd = true
		}
	}
	if !closedAtEnd {
		t.Fatal("open tx was not closed at trace end")
	}
}

func TestChromeTraceAbortMarkerAndCauseNames(t *testing.T) {
	evs := ChromeTraceEvents(sampleEvents())
	var marker *TraceEvent
	for i := range evs {
		if evs[i].Name == "abort" && evs[i].Ph == "i" {
			marker = &evs[i]
		}
	}
	if marker == nil {
		t.Fatal("no abort instant marker")
	}
	if marker.Scope != "t" || marker.Args["cause"] != "conflict" {
		t.Fatalf("abort marker = %+v", *marker)
	}
}

func TestChromeTraceThreadNames(t *testing.T) {
	evs := ChromeTraceEvents(sampleEvents())
	names := map[int]string{}
	for _, e := range evs {
		if e.Ph == "M" && e.Name == "thread_name" {
			names[e.Tid], _ = e.Args["name"].(string)
		}
	}
	for _, tid := range []int{0, 1, 2} {
		if !strings.HasPrefix(names[tid], "proc ") {
			t.Fatalf("tid %d name = %q", tid, names[tid])
		}
	}
}

func TestChromeTraceEmptyInput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var objs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &objs); err != nil {
		t.Fatalf("empty export must still be a JSON array: %v", err)
	}
}
