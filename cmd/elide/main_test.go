package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elision/internal/harness"
	"elision/internal/obs"
	"elision/internal/obs/causality"
)

// TestRejectsBadFleetFlags: elide accepts -j/-shards for cmd-tool
// uniformity and validates them like every other tool.
func TestRejectsBadFleetFlags(t *testing.T) {
	if err := run([]string{"-j", "-1"}); err == nil || !strings.Contains(err.Error(), "-j") {
		t.Fatalf("run(-j -1) = %v, want -j complaint", err)
	}
	if err := run([]string{"-shards", "-2"}); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("run(-shards -2) = %v, want -shards complaint", err)
	}
	if err := run([]string{"-structure", "splay"}); err == nil {
		t.Fatal("run accepted an unknown structure")
	}
	if err := run([]string{"stray"}); err == nil {
		t.Fatal("run accepted a stray positional argument")
	}
}

// TestRejectsBadNames: typos in -scheme/-lock, and out-of-range -threads,
// -size and -mix, must be flag errors, not harness panics or nonsense runs.
func TestRejectsBadNames(t *testing.T) {
	err := run([]string{"-scheme", "hle-scmm"})
	if err == nil || !strings.Contains(err.Error(), "unknown -scheme") {
		t.Fatalf("run(-scheme hle-scmm) = %v, want unknown-scheme error", err)
	}
	if !strings.Contains(err.Error(), "adaptive-slr") {
		t.Fatalf("scheme error %v does not list the accepted names", err)
	}
	if err := run([]string{"-lock", "mcss"}); err == nil || !strings.Contains(err.Error(), "unknown -lock") {
		t.Fatalf("run(-lock mcss) = %v, want unknown-lock error", err)
	}
	for _, bad := range [][]string{
		{"-threads", "0"}, {"-threads", "65"}, // outside [1, sim.MaxProcs]
		{"-size", "-5"},
		{"-mix", "60,60"}, {"-mix", "-10,0"}, {"-mix", "0,-1"}, // sum > 100, negative
	} {
		if err := run(bad); err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Fatalf("run(%s %s) = %v, want %s complaint", bad[0], bad[1], err, bad[0])
		}
	}
	if err := run([]string{"-quantum", "0"}); err == nil || !strings.Contains(err.Error(), "-quantum") {
		t.Fatalf("run(-quantum 0) = %v, want -quantum complaint", err)
	}
}

// TestRejectsBadAdaptiveConfig: -adaptive is validated at the flag layer —
// wrong scheme, negative budgets and zero-length forfeit windows all exit
// non-zero before any simulation starts.
func TestRejectsBadAdaptiveConfig(t *testing.T) {
	if err := run([]string{"-adaptive", "5/2,16/5,0/8,3/3"}); err == nil ||
		!strings.Contains(err.Error(), "requires -scheme") {
		t.Fatal("run accepted -adaptive on a non-adaptive scheme")
	}
	for _, bad := range []string{
		"-1/2,16/5,0/8,3/3", // negative retry budget
		"5/0,16/5,0/8,3/3",  // zero-length forfeit window
		"5/2,16/5,0/8",      // missing class
		"garbage",
	} {
		if err := run([]string{"-scheme", "adaptive-slr", "-adaptive", bad}); err == nil ||
			!strings.Contains(err.Error(), "bad -adaptive") {
			t.Fatalf("run(-adaptive %q) = %v, want bad-adaptive error", bad, err)
		}
	}
}

// TestAdaptiveRunsEndToEnd: a tiny adaptive point completes and the flag
// plumbing reaches the scheme (smoke, kept fast via a small budget).
func TestAdaptiveRunsEndToEnd(t *testing.T) {
	args := []string{"-scheme", "adaptive-slr", "-lock", "mcs",
		"-size", "64", "-budget", "100000", "-adaptive", "2/2,4/2,0/4,2/2"}
	if err := run(args); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
}

// TestCausalityOutputsMatchSection4Run: the §4 lemming point (HLE over MCS,
// size 64, at TestScale's 300k-cycle budget) driven through the flags
// writes exactly the metrics CSV and trace-event JSON of the in-process
// harness.CausalRun.
func TestCausalityOutputsMatchSection4Run(t *testing.T) {
	dir := t.TempDir()
	metrics, traceJSON := filepath.Join(dir, "m.csv"), filepath.Join(dir, "t.json")
	if err := run([]string{"-scheme", "hle", "-lock", "mcs", "-size", "64", "-budget", "300000",
		"-causality", "-metrics", metrics, "-trace-json", traceJSON}); err != nil {
		t.Fatal(err)
	}

	sc := harness.TestScale()
	_, col, tr, eng := harness.CausalRun(sc.Section4Config(harness.SchemeHLE, harness.LockMCS), causality.Config{})
	var wantCSV, wantTrace bytes.Buffer
	col.WriteCSV(&wantCSV)
	if err := obs.WriteChromeTraceFlows(&wantTrace, tr.Events(), eng.FlowEvents()); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		path string
		want []byte
	}{{metrics, wantCSV.Bytes()}, {traceJSON, wantTrace.Bytes()}} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.want) {
			t.Errorf("%s differs from harness.CausalRun's output (%d vs %d bytes)",
				filepath.Base(f.path), len(got), len(f.want))
		}
	}
}

// goldenTraceDigests pins the exact bytes -trace-json writes on three §4
// points at TestScale's 300k-cycle budget: plain transaction and lock
// spans, the same run with cascade flow arrows, and SCM aux spans. A
// refactor of the event path must keep every byte (regenerate with
// -run TestTraceJSONGoldenDigests -v and copy the logged digests).
var goldenTraceDigests = []struct {
	name   string
	args   []string
	digest string
}{
	{"hle-mcs", []string{"-scheme", "hle", "-lock", "mcs"}, "33aea1f24149455a6dadeb4e9cda4aa2255c88661ff21e2397a74e1a8ba61687"},
	{"hle-mcs-causality", []string{"-scheme", "hle", "-lock", "mcs", "-causality"}, "f9238b39db99e0e03759c5681e97ab529ba065eb58dd9fd0bb6384fbd601371d"},
	{"hle-scm-mcs", []string{"-scheme", "hle-scm", "-lock", "mcs"}, "d9824f0db55d1f3dc24c2c58dece4481e9c82cc7b5515be0ecabaea06160bfaf"},
}

func TestTraceJSONGoldenDigests(t *testing.T) {
	dir := t.TempDir()
	for _, g := range goldenTraceDigests {
		path := filepath.Join(dir, g.name+".json")
		args := append([]string{"-size", "64", "-budget", "300000", "-trace-json", path}, g.args...)
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got := hex.EncodeToString(sum[:])
		t.Logf("%s: %s", g.name, got)
		if got != g.digest {
			t.Errorf("%s: -trace-json digest %s, want %s", g.name, got, g.digest)
		}
	}
}
