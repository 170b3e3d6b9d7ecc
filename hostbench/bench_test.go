package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"elision/internal/harness"
	"elision/internal/modelcheck"
)

// batchDigests runs batch 0 of w for the default seed at the given fleet
// width.
func batchDigests(w *harnessWorkload, width int) []uint64 {
	run := harness.NewRunner()
	run.Workers = width
	res := run.RunAll(w.batch(defaultSeed, 0))
	out := make([]uint64, len(res))
	for i, r := range res {
		out[i] = digest(r.Stats, r.Cycles)
	}
	return out
}

// TestDigestsPinnedAndWorkerInvariant pins every workload's default-seed
// output and checks it is the same at one and two workers.
func TestDigestsPinnedAndWorkerInvariant(t *testing.T) {
	for _, w := range []*harnessWorkload{lemming, speculative} {
		one, two := batchDigests(w, 1), batchDigests(w, 2)
		pins := pinnedDigests[w.name]
		if len(pins) != len(one) {
			t.Fatalf("%s: %d pinned digests for %d points", w.name, len(pins), len(one))
		}
		for i := range one {
			if one[i] != two[i] || one[i] != pins[i] {
				t.Errorf("%s point %d: 1 worker %016x, 2 workers %016x, pinned %016x", w.name, i, one[i], two[i], pins[i])
			}
		}
	}
	cfg := campaignConfig(defaultSeed, 0)
	cfg.Workers = 1
	one := modelcheck.RunCampaign(cfg)
	cfg.Workers = 2
	two := modelcheck.RunCampaign(cfg)
	if one.Verdict != "ok" {
		t.Errorf("modelcheck campaign verdict %q", one.Verdict)
	}
	if a, b := summaryDigest(one), summaryDigest(two); a != b || a != pinnedSummarySHA256 {
		t.Errorf("modelcheck Summary: 1 worker %s, 2 workers %s, pinned %s", a, b, pinnedSummarySHA256)
	}
}

// TestTracedInstanceMatchesHarness: tracing changes no simulated bit.
func TestTracedInstanceMatchesHarness(t *testing.T) {
	for _, w := range []*harnessWorkload{lemming, speculative} {
		var sample []harness.DSConfig
		for i, c := range w.batch(defaultSeed, 0) {
			if i%7 == 0 {
				sample = append(sample, c)
			}
		}
		traced, led, err := tracedPass([][]harness.DSConfig{sample, sample})
		if err != nil {
			t.Fatal(err)
		}
		for b := range traced {
			for i, r := range traced[b] {
				want := harness.RunDataStructure(sample[i])
				if digest(r.Stats, r.Cycles) != digest(want.Stats, want.Cycles) {
					t.Errorf("%s %+v: traced %+v in %d cycles, harness %+v in %d", w.name, sample[i], r.Stats, r.Cycles, want.Stats, want.Cycles)
				}
			}
		}
		if led.points != 2*len(sample) || led.accesses == 0 || led.switches == 0 || led.stats.Ops == 0 {
			t.Errorf("%s ledger: %d points, %d accesses, %d switches, %d ops", w.name, led.points, led.accesses, led.switches, led.stats.Ops)
		}
	}
}

// TestTracedCampaignMatchesRunCampaign: the case-by-case traced campaign
// generates and folds exactly what RunCampaign does.
func TestTracedCampaignMatchesRunCampaign(t *testing.T) {
	cfg := campaignConfig(heldOutSeed, 0)
	want := modelcheck.RunCampaign(cfg)
	got, led := tracedCampaign(cfg)
	if !sameCampaign(got, want) {
		t.Fatalf("traced campaign differs:\n got %+v\nwant %+v", got, want)
	}
	if led.cases != want.TotalCases || led.setupNs <= 0 || led.shrunk != len(want.Failures) {
		t.Errorf("ledger: %d cases (want %d), setup %dns, %d shrunk (want %d)", led.cases, want.TotalCases, led.setupNs, led.shrunk, len(want.Failures))
	}
}

// TestFold checks span self time and handoff attribution on a synthetic
// tape.
func TestFold(t *testing.T) {
	ev := []event{
		{t: 10, pid: 0, kind: spanCritical},            // 0-10: handoff from the host goroutine
		{t: 12, pid: 0, kind: spanDS},                  // 10-12: critical self
		{t: 13, pid: 0, kind: spanAccess},              // 12-13: structure self
		{t: 20, pid: 1, kind: spanCritical},            // 13-20: handoff (proc 0 yielded inside its access)
		{t: 25, pid: 1, kind: spanCritical, end: true}, // 20-25: critical self
		{t: 40, pid: 0, kind: spanAccess, end: true},   // 25-40: handoff back
		{t: 41, pid: 0, kind: spanDS, end: true},       // 40-41: structure self
		{t: 45, pid: 0, kind: spanCritical, end: true}, // 41-45: critical self
		{t: 47, pid: 0, kind: spanCritical},            // 45-47: op loop
		{t: 48, pid: 0, kind: spanCritical, end: true}, // 47-48: critical self
	}
	l := newLedger()
	if err := l.fold(ev, 0, 50, harness.StructTree); err != nil { // 48-50: handoff to the host
		t.Fatal(err)
	}
	if l.handoffNs != 10+7+15+2 || l.switches != 4 {
		t.Errorf("handoff %dns over %d switches, want 34ns over 4", l.handoffNs, l.switches)
	}
	if l.self[spanCritical] != 2+5+4+1 || l.dsSelf[harness.StructTree] != 1+1 || l.loopNs != 2 || l.accesses != 1 {
		t.Errorf("critical %d, structure %d, loop %d, accesses %d", l.self[spanCritical], l.dsSelf[harness.StructTree], l.loopNs, l.accesses)
	}
	bad := []event{{t: 1, pid: 0, kind: spanDS}, {t: 2, pid: 0, kind: spanCritical, end: true}}
	if err := newLedger().fold(bad, 0, 3, harness.StructTree); err == nil {
		t.Error("out-of-order span close not reported")
	}
}

// TestBatchesLeaveTenBeyondP90: every batch is big enough that its p90
// has at least ten samples beyond it.
func TestBatchesLeaveTenBeyondP90(t *testing.T) {
	for _, w := range []*harnessWorkload{lemming, speculative} {
		if n := len(w.batch(defaultSeed, 0)); n < 100 {
			t.Errorf("%s batch has %d points", w.name, n)
		}
	}
	if n := len(modelcheck.RealSchemes()) * len(modelcheck.RealLocks()) * mcSeedsPerCombo; n < 100 {
		t.Errorf("modelcheck campaign has %d cases", n)
	}
}

// TestBenchmarkJSONMatchesMetrics: BENCHMARK.json names exactly the
// workloads and metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "lemming,speculative,modelcheck" {
		t.Errorf("workloads %s", got)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestRunPrintsResultLine runs every workload briefly, untraced and
// traced, and checks the last line carries every metric and a clean check.
func TestRunPrintsResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"lemming", "speculative", "modelcheck"} {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			args := []string{"--workload", w, "--seed", "3", "--seconds", "0.01", "--trace", []string{"0", "1"}[trace]}
			if err := run(args, &out); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("%v: %+v", args, res)
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%v: metric %s missing or not in %s", args, d.name, d.unit)
				}
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "lemming", "--trace", "2"},
		{"--workload", "lemming", "--seconds", "0"},
		{"--workload", "lemming", "extra"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
