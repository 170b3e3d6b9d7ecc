package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elision/internal/obs"
)

// TestRejectsBadFlags: malformed search or workload flags exit non-zero with
// a usage message before any simulation starts.
func TestRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"fixed scheme":      {"-scheme", "opt-slr"},
		"unknown scheme":    {"-scheme", "adaptive-slrr"},
		"unknown lock":      {"-lock", "mcss"},
		"unknown structure": {"-structure", "splay"},
		"bad mix":           {"-mix", "garbage"},
		"mix over 100":      {"-mix", "80,80"},
		"zero threads":      {"-threads", "-3"},
		"too many threads":  {"-threads", "1000"},
		"negative size":     {"-size", "-1"},
		"zero seeds":        {"-seeds", "0"},
		"zero candidates":   {"-candidates", "0"},
		"eta one":           {"-eta", "1"},
		"zero budget":       {"-budget", "0"},
		"negative j":        {"-j", "-1"},
		"stray argument":    {"stray"},
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("%s: run(%v) accepted", name, args)
		}
	}
}

// TestSmokeJSONDeterministicAcrossWorkers is the CI gate run locally: the
// -smoke search must emit byte-identical elision-tune/v1 JSON at -j 1 and
// -j 4, and its tuned winner must beat fixed-MAX_RETRIES SLR.
func TestSmokeJSONDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	paths := [2]string{filepath.Join(dir, "j1.json"), filepath.Join(dir, "j4.json")}
	for i, j := range []string{"1", "4"} {
		if err := run([]string{"-smoke", "-j", j, "-json", paths[i]}, null); err != nil {
			t.Fatalf("run(-smoke -j %s) = %v", j, err)
		}
	}
	j1, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	j4, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatal("tuner JSON differs between -j 1 and -j 4")
	}
	var doc struct {
		Schema     string `json:"schema"`
		Hypothesis struct {
			TunedBeatsSLR bool `json:"tuned_beats_slr"`
		} `json:"hypothesis"`
		Winner struct {
			Config string `json:"config"`
		} `json:"winner"`
	}
	if err := json.Unmarshal(j1, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "elision-tune/v1" {
		t.Fatalf("schema %q", doc.Schema)
	}
	if !doc.Hypothesis.TunedBeatsSLR {
		t.Fatal("smoke search's tuned winner does not beat fixed-MAX_RETRIES SLR")
	}
	if !strings.Contains(doc.Winner.Config, "/") {
		t.Fatalf("winner config %q is not canonical", doc.Winner.Config)
	}
}

// TestSmokePromLints: -prom writes a linting Prometheus exposition covering
// the winner and every baseline, flight_* chain analytics included.
func TestSmokePromLints(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "tune.prom")
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if err := run([]string{"-smoke", "-prom", promPath}, null); err != nil {
		t.Fatalf("run(-smoke -prom) = %v", err)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(prom)); err != nil {
		t.Fatalf("-prom exposition does not lint: %v\n%s", err, prom)
	}
	for _, want := range []string{
		"flight_chains_total", "flight_cycles_total",
		`campaign_runs_total{scheme="adaptive-slr",lock="mcs"}`, // the winner
		`campaign_runs_total{scheme="opt-slr",lock="mcs"}`,      // a baseline
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("-prom exposition lacks %s", want)
		}
	}
}
