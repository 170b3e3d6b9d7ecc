package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"elision/internal/harness"
	"elision/internal/obs"
)

// TestRejectsBadFleetFlags: negative -j / -shards exit non-zero before any
// figure regenerates.
func TestRejectsBadFleetFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-j", "-1"}, &out); err == nil || !strings.Contains(err.Error(), "-j") {
		t.Fatalf("run(-j -1) = %v, want -j complaint", err)
	}
	if err := run([]string{"-shards", "-2"}, &out); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("run(-shards -2) = %v, want -shards complaint", err)
	}
	if err := run([]string{"stray"}, &out); err == nil {
		t.Fatal("run accepted a stray positional argument")
	}
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}

// TestOnlyRejectsBadNames: an unknown -only name, or adaptive without an
// -adaptive config, is an error before anything runs or is written.
func TestOnlyRejectsBadNames(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	var out bytes.Buffer
	err := run([]string{"-quick", "-out", dir, "-only", "figure4,figure5"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"figure5"`) {
		t.Fatalf("run(-only figure4,figure5) = %v, want unknown-job error", err)
	}
	if !strings.Contains(err.Error(), "figure9-smt") || !strings.Contains(err.Error(), "timeline") {
		t.Fatalf("error %v does not list the known jobs", err)
	}
	if err := run([]string{"-quick", "-out", dir, "-only", "adaptive"}, &out); err == nil ||
		!strings.Contains(err.Error(), "requires -adaptive") {
		t.Fatalf("run(-only adaptive) = %v, want requires -adaptive", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("rejected run created %s (stat err %v)", dir, err)
	}
	if out.Len() > 0 {
		t.Fatalf("rejected run wrote to stdout: %q", out.String())
	}
}

// quickFigure4 runs `reproduce -quick -only figure4` with extra flags and
// returns the results directory and stdout.
func quickFigure4(t *testing.T, extra ...string) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	args := append([]string{"-quick", "-out", dir, "-only", "figure4"}, extra...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return dir, out.Bytes()
}

// TestOnlyWritesSelectedJob: -only figure4 writes figure4.{txt,csv} and
// nothing else, and the CSV is harness.Figure4's rendering.
func TestOnlyWritesSelectedJob(t *testing.T) {
	dir, stdout := quickFigure4(t, "-j", "2")
	if got, want := dirNames(t, dir), []string{"figure4.csv", "figure4.txt"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
	var csv, text bytes.Buffer
	for _, tab := range harness.Figure4(harness.NewRunner(), harness.TestScale()) {
		tab.RenderCSV(&csv)
		tab.Render(&text)
	}
	if got := readFile(t, dir, "figure4.csv"); !bytes.Equal(got, csv.Bytes()) {
		t.Fatalf("figure4.csv differs from harness.Figure4\ngot:\n%s\nwant:\n%s", got, csv.Bytes())
	}
	if got := readFile(t, dir, "figure4.txt"); !bytes.Equal(got, text.Bytes()) || !bytes.Equal(stdout, text.Bytes()) {
		t.Fatal("figure4.txt or stdout differs from harness.Figure4's text rendering")
	}
}

// TestOnlyRunsInListOrder: jobs run in the job list's order, not in the
// order -only names them, and the timeline job writes only a .txt.
func TestOnlyRunsInListOrder(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-quick", "-out", dir, "-only", "timeline,figure4"}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := dirNames(t, dir), []string{"figure4.csv", "figure4.txt", "timeline.txt"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
	fig4, timeline := readFile(t, dir, "figure4.txt"), readFile(t, dir, "timeline.txt")
	if !bytes.Equal(out.Bytes(), append(fig4, timeline...)) {
		t.Fatal("stdout is not figure4 then timeline")
	}
}

// TestQuickFigureWorkerInvariance: the written tables are byte-identical at
// -j 1 and -j 8 with a mismatched shard count.
func TestQuickFigureWorkerInvariance(t *testing.T) {
	dir1, out1 := quickFigure4(t, "-j", "1")
	dir8, out8 := quickFigure4(t, "-j", "8", "-shards", "3")
	if !bytes.Equal(readFile(t, dir1, "figure4.csv"), readFile(t, dir8, "figure4.csv")) {
		t.Fatal("-j 1 and -j 8 wrote different CSV")
	}
	if !bytes.Equal(out1, out8) {
		t.Fatal("-j 1 and -j 8 printed different tables")
	}
}

// TestObservedCampaignArtifacts: at -j 1 and at -j 8 with a mismatched shard
// count, the rollup is byte-identical and the exposition differs only in its
// host-state lines (fleet_*, and the worker pool's harness_instance_* and
// harness_pool_*). The exposition lints and carries the campaign, htm,
// harness and fleet families; the fleet trace is non-empty trace-event JSON.
func TestObservedCampaignArtifacts(t *testing.T) {
	type artifacts struct{ rollup, prom, trace []byte }
	observed := func(workers ...string) artifacts {
		obsDir := t.TempDir()
		quickFigure4(t, append(workers, "-rollup", filepath.Join(obsDir, "r"),
			"-prom", filepath.Join(obsDir, "p"), "-fleet-trace", filepath.Join(obsDir, "f"))...)
		return artifacts{readFile(t, obsDir, "r"), readFile(t, obsDir, "p"), readFile(t, obsDir, "f")}
	}
	a1, a8 := observed("-j", "1"), observed("-j", "8", "-shards", "3")
	if !bytes.Equal(a1.rollup, a8.rollup) {
		t.Fatalf("-j 1 and -j 8 wrote different rollups\n--- j1 ---\n%s--- j8 ---\n%s", a1.rollup, a8.rollup)
	}
	deterministic := func(raw []byte) string {
		var keep []string
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.Contains(line, "fleet_") && !strings.Contains(line, "harness_instance_") &&
				!strings.Contains(line, "harness_pool_") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if deterministic(a1.prom) != deterministic(a8.prom) {
		t.Fatalf("-j 1 and -j 8 expositions differ outside the host-state lines\n--- j1 ---\n%s\n--- j8 ---\n%s",
			deterministic(a1.prom), deterministic(a8.prom))
	}
	if err := obs.LintPrometheus(bytes.NewReader(a1.prom)); err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	for _, want := range []string{
		"campaign_runs_total", "htm_commits_total", "harness_prefill_hits_total", "fleet_jobs_total",
	} {
		if !bytes.Contains(a1.prom, []byte(want)) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	var events []obs.TraceEvent
	if err := json.Unmarshal(a1.trace, &events); err != nil {
		t.Fatalf("fleet trace is not trace-event JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("fleet trace is empty")
	}
}

// TestWriteLintedRejectsBadExposition: an exposition that fails the lint is
// an error and leaves no file behind; a valid one is written as given.
func TestWriteLintedRejectsBadExposition(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.prom")
	if err := writeLinted(bad, []byte("bad-name 1\n")); err == nil || !strings.Contains(err.Error(), "does not lint") {
		t.Fatalf("writeLinted(bad) = %v, want lint error", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("rejected exposition was written (stat err %v)", err)
	}
	good := []byte("# TYPE runs_total counter\nruns_total 3\n")
	if err := writeLinted(filepath.Join(dir, "good.prom"), good); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, dir, "good.prom"); !bytes.Equal(got, good) {
		t.Fatalf("wrote %q, want %q", got, good)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
