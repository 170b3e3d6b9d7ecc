package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"elision/internal/htm"
	"elision/internal/obs"
)

// TestHotLineProfilerFingersLockUnderHLEMCS is the issue's first acceptance
// criterion: on the §4 lemming workload (plain HLE over MCS), the hot-line
// profiler's top entry must be the main lock's cache line — the measured
// form of the paper's claim that fair-lock elision aborts concentrate on
// the lock word, not the data.
func TestHotLineProfilerFingersLockUnderHLEMCS(t *testing.T) {
	sc := TestScale()
	res, col, _ := ObservedRun(sc.Section4Config(SchemeHLE, LockMCS))
	if len(res.LockLines) == 0 {
		t.Fatal("MCS must report its lock lines")
	}
	top := col.Hot.TopN(1)
	if len(top) == 0 {
		t.Fatal("lemming run recorded no conflict aborts")
	}
	if !res.HasLockLine(top[0].Line) {
		t.Fatalf("hottest line %d (%d aborts) is not a lock line (%v)",
			top[0].Line, top[0].Aborts, res.LockLines)
	}
	// The tail word specifically: it is the elided line every transaction
	// reads and every non-speculative enqueue writes.
	if top[0].Line != res.LockLines[0] {
		t.Fatalf("hottest line %d is not the MCS tail line %d", top[0].Line, res.LockLines[0])
	}
	// It should dominate, not just edge out the data lines.
	if total := col.Hot.Total(); top[0].Aborts*2 < total {
		t.Fatalf("lock line holds %d of %d conflict aborts; expected a majority", top[0].Aborts, total)
	}
}

// TestHotLineProfilerLockAbsentUnderOptSLR is the criterion's counterpart:
// SLR transactions leave the lock alone until commit time, so the same
// workload's hot lines must all be data lines.
func TestHotLineProfilerLockAbsentUnderOptSLR(t *testing.T) {
	sc := TestScale()
	res, col, _ := ObservedRun(sc.Section4Config(SchemeOptSLR, LockMCS))
	top := col.Hot.TopN(5)
	if len(top) == 0 {
		t.Fatal("contended SLR run recorded no conflict aborts")
	}
	for _, lc := range top {
		if res.HasLockLine(lc.Line) {
			t.Fatalf("lock line %d appears in SLR's top-5 with %d aborts (lock lines %v)",
				lc.Line, lc.Aborts, res.LockLines)
		}
	}
}

// TestObservedRunMatchesUnobserved pins that instrumentation is read-only:
// an observed run must produce bit-identical virtual-time results.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	sc := TestScale()
	cfg := sc.Section4Config(SchemeHLESCM, LockMCS)
	plain := RunDataStructure(cfg)
	observed, _, _ := ObservedRun(cfg)
	if plain.Stats != observed.Stats || plain.Cycles != observed.Cycles {
		t.Fatalf("observed run diverged:\nplain    %+v (%d cycles)\nobserved %+v (%d cycles)",
			plain.Stats, plain.Cycles, observed.Stats, observed.Cycles)
	}
}

// TestObservedRunFeedsAllSinks cross-checks the collector against the
// run's own statistics and the tracer's event counts.
func TestObservedRunFeedsAllSinks(t *testing.T) {
	sc := TestScale()
	res, col, tr := ObservedRun(sc.Section4Config(SchemeHLESCM, LockMCS))
	s := res.Stats
	base := col.BaseLabels()

	spec := col.Reg.Counter(obs.MetricOps, base.With("path", "spec")).Value()
	nonspec := col.Reg.Counter(obs.MetricOps, base.With("path", "nonspec")).Value()
	if spec != s.Spec || nonspec != s.NonSpec {
		t.Fatalf("ops counters (%d,%d) != stats (%d,%d)", spec, nonspec, s.Spec, s.NonSpec)
	}
	counts := tr.Counts()
	if got := col.Reg.Counter(obs.MetricCommits, base).Value(); got != uint64(counts[obs.KindCommit]) {
		t.Fatalf("commit counter %d != traced commits %d", got, counts[obs.KindCommit])
	}
	var aborts uint64
	for c := htm.Cause(0); int(c) < htm.NumCauses; c++ {
		aborts += col.Reg.Counter(obs.MetricAborts, base.With("cause", c.String())).Value()
	}
	if aborts != uint64(counts[obs.KindAbort]) {
		t.Fatalf("abort counters %d != traced aborts %d", aborts, counts[obs.KindAbort])
	}
	if got := col.Reg.Histogram(obs.MetricReadSet, base.With("at", "commit")).Count(); got != uint64(counts[obs.KindCommit]) {
		t.Fatalf("read-set histogram %d samples, want %d", got, counts[obs.KindCommit])
	}
	if got := col.Reg.Counter(obs.MetricAuxEntries, base).Value(); got != s.AuxAcquires {
		t.Fatalf("aux entries %d != stats %d", got, s.AuxAcquires)
	}
	if s.AuxAcquires > 0 {
		h := col.Reg.Histogram(obs.MetricAuxDwell, base)
		if h.Count() != s.AuxAcquires || h.Sum() == 0 {
			t.Fatalf("aux dwell histogram count=%d sum=%d, want count=%d with nonzero sum",
				h.Count(), h.Sum(), s.AuxAcquires)
		}
	}
	if got := col.Reg.Histogram(obs.MetricRetries, base).Count(); got != s.Ops {
		t.Fatalf("retries histogram %d samples, want one per op (%d)", got, s.Ops)
	}
	if got := col.Reg.Gauge("run_cycles", base).Value(); got != int64(res.Cycles) {
		t.Fatalf("run_cycles gauge %d != %d", got, res.Cycles)
	}

	var wOps, wSpec uint64
	for _, w := range col.Series.Windows() {
		wOps += w.Ops
		wSpec += w.Spec
	}
	if wOps != s.Ops || wSpec != s.Spec {
		t.Fatalf("series totals (%d,%d) != stats (%d,%d)", wOps, wSpec, s.Ops, s.Spec)
	}
}

// TestSeriesShowsLemmingCollapse renders §4's Figure-3 story as numbers:
// under plain HLE over MCS the spec fraction collapses after the first
// non-speculative acquisition and stays down for the rest of the run.
func TestSeriesShowsLemmingCollapse(t *testing.T) {
	sc := TestScale()
	_, col, _ := ObservedRun(sc.Section4Config(SchemeHLE, LockMCS))
	wins := col.Series.Windows()
	if len(wins) < 4 {
		t.Fatalf("only %d windows", len(wins))
	}
	// Every window in the second half of the run stays collapsed.
	for i := len(wins) / 2; i < len(wins); i++ {
		if w := wins[i]; w.Ops > 0 && w.SpecFraction() > 0.2 {
			t.Fatalf("window %d recovered to %.0f%% spec — no lemming collapse: %+v",
				i, 100*w.SpecFraction(), wins)
		}
	}
}

// TestObservedRunChromeExport runs the export end-to-end on real simulator
// events and validates the required schema fields.
func TestObservedRunChromeExport(t *testing.T) {
	sc := TestScale()
	_, _, tr := ObservedRun(sc.Section4Config(SchemeHLE, LockMCS))
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var objs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &objs); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	if len(objs) < tr.Len() {
		t.Fatalf("export has %d objects for %d events", len(objs), tr.Len())
	}
	for i, o := range objs {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := o[k]; !ok {
				t.Fatalf("event %d missing %q: %v", i, k, o)
			}
		}
	}
}
