package harness

import (
	"fmt"
	"strings"
	"testing"
)

func TestRunDataStructureDeterministic(t *testing.T) {
	cfg := DSConfig{
		Structure: StructTree, Threads: 4, Size: 64, Mix: MixModerate,
		Scheme: SchemeHLESCM, Lock: LockMCS, BudgetCycles: 100_000,
		Seed: 9, Quantum: 64,
	}
	a := RunDataStructure(cfg)
	b := RunDataStructure(cfg)
	if a.Stats != b.Stats || a.Cycles != b.Cycles {
		t.Fatalf("replay diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.Ops == 0 {
		t.Fatal("no operations completed")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner()
	computed := 0
	r.Progress = func(done, total int) { computed++ }
	cfg := DSConfig{
		Structure: StructHash, Threads: 2, Size: 64, Mix: MixLookupOnly,
		Scheme: SchemeHLE, Lock: LockTTAS, BudgetCycles: 50_000, Seed: 1, Quantum: 64,
	}
	r.RunAll([]DSConfig{cfg, cfg, cfg})
	r.RunAll([]DSConfig{cfg})
	if computed != 1 {
		t.Fatalf("computed %d times, want 1 (memoization broken)", computed)
	}
}

// TestFigure2Shapes asserts §4's qualitative findings at test scale.
func TestFigure2Shapes(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	_ = Figure2(r, sc)
	nt := sc.maxThreads()
	for _, size := range sc.Sizes {
		hleMCS := r.Run(sc.point(size, MixModerate, SchemeHLE, LockMCS, nt))
		if f := hleMCS.Stats.NonSpecFraction(); f < 0.8 {
			t.Errorf("size %d: HLE-MCS non-speculative fraction %.2f, want lemming collapse > 0.8", size, f)
		}
	}
	// TTAS recovers as the tree grows.
	small := r.Run(sc.point(sc.Sizes[0], MixModerate, SchemeHLE, LockTTAS, nt))
	large := r.Run(sc.point(sc.Sizes[len(sc.Sizes)-1], MixModerate, SchemeHLE, LockTTAS, nt))
	if small.Stats.NonSpecFraction() <= large.Stats.NonSpecFraction() {
		t.Errorf("HLE-TTAS non-spec fraction did not fall with size: %.3f -> %.3f",
			small.Stats.NonSpecFraction(), large.Stats.NonSpecFraction())
	}
}

// TestFigure9Shapes asserts the headline scaling claims.
func TestFigure9Shapes(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	_ = Figure9(r, sc)
	nt := sc.maxThreads()
	hleMCS := r.Run(sc.point(128, MixModerate, SchemeHLE, LockMCS, nt))
	stdMCS := r.Run(sc.point(128, MixModerate, SchemeStandard, LockMCS, nt))
	if hleMCS.Throughput() > 1.5*stdMCS.Throughput() {
		t.Errorf("plain HLE-MCS at %d threads shows speedup (%.1f vs %.1f); lemming effect missing",
			nt, hleMCS.Throughput(), stdMCS.Throughput())
	}
	for _, s := range []SchemeID{SchemeHLESCM, SchemeOptSLR, SchemeSLRSCM} {
		res := r.Run(sc.point(128, MixModerate, s, LockMCS, nt))
		if res.Throughput() < 2*hleMCS.Throughput() {
			t.Errorf("%s on MCS (%.1f) does not clearly beat plain HLE (%.1f)",
				s, res.Throughput(), hleMCS.Throughput())
		}
	}
}

// TestFigure10Shapes asserts the software schemes beat plain HLE on MCS.
func TestFigure10Shapes(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	tabs := Figure10(r, sc)
	if len(tabs) != 6 {
		t.Fatalf("Figure10 produced %d tables, want 6", len(tabs))
	}
	nt := sc.maxThreads()
	for _, size := range sc.Sizes {
		base := r.Run(sc.point(size, MixModerate, SchemeHLE, LockMCS, nt))
		scm := r.Run(sc.point(size, MixModerate, SchemeHLESCM, LockMCS, nt))
		if scm.Throughput() < 1.5*base.Throughput() {
			t.Errorf("size %d: HLE-SCM/HLE on MCS = %.2f, want > 1.5",
				size, scm.Throughput()/base.Throughput())
		}
	}
}

func TestFigure3Emits(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	tabs := Figure3(r, sc)
	if len(tabs) != 2 {
		t.Fatalf("Figure3 produced %d tables, want 2", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: no time slots", tb.Title)
		}
	}
}

func TestFigure11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full STAMP sweep")
	}
	tabs, err := Figure11(TestStampScale(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("Figure11 produced %d tables, want 2", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) != 9 {
			t.Fatalf("%s: %d rows, want 9", tb.Title, len(tb.Rows))
		}
		for _, row := range tb.Rows {
			if row[1] != "1.00" {
				t.Fatalf("%s: standard column not normalized: %v", tb.Title, row)
			}
		}
	}
}

func TestHashTableComparisonSmoke(t *testing.T) {
	r := NewRunner()
	sc := TestScale()
	tabs := HashTableComparison(r, sc)
	if len(tabs) != 2 {
		t.Fatalf("got %d tables, want 2", len(tabs))
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var sbText, sbCSV strings.Builder
	tb.Render(&sbText)
	tb.RenderCSV(&sbCSV)
	text := sbText.String()
	if !strings.Contains(text, "T\n") || !strings.Contains(text, "333") {
		t.Fatalf("Render output wrong:\n%s", text)
	}
	csv := sbCSV.String()
	if !strings.Contains(csv, "a,bb\n") || !strings.Contains(csv, "333,4\n") {
		t.Fatalf("RenderCSV output wrong:\n%s", csv)
	}
}

func TestMixNames(t *testing.T) {
	if MixLookupOnly.Name() != "lookups-only" ||
		MixModerate.Name() != "20% updates" ||
		MixExtensive.Name() != "100% updates" {
		t.Fatal("mix names changed; figure titles depend on them")
	}
	if got := (Mix{5, 3}).Name(); got != "5%ins/3%del" {
		t.Fatalf("custom mix name: %s", got)
	}
}

func TestParseMix(t *testing.T) {
	for in, want := range map[string]Mix{"10,10": MixModerate, "0,0": MixLookupOnly, "50,50": MixExtensive, "5,3": {5, 3}} {
		if got, err := ParseMix(in); err != nil || got != want {
			t.Errorf("ParseMix(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, bad := range []string{"garbage", "10", "60,60", "80,80", "-10,0", "0,-1"} {
		if got, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) = %+v, want an error", bad, got)
		}
	}
}

func TestThroughputZeroCycles(t *testing.T) {
	if (Result{}).Throughput() != 0 {
		t.Fatal("Throughput on empty result must be 0")
	}
}

// TestDSConfigValidate: every bad input the harness cannot run is an error
// from Validate, and a Runner fan-out panics on the caller's goroutine,
// before any worker starts, instead of deep inside a worker.
func TestDSConfigValidate(t *testing.T) {
	good := DSConfig{
		Structure: StructTree, Threads: 4, Size: 64, Mix: MixModerate,
		Scheme: SchemeAdaptiveSLR, Lock: LockMCS, BudgetCycles: 10_000,
		Seed: 1, Quantum: 64, ACfg: "5/2,16/5,0/8,3/3",
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for name, mut := range map[string]func(*DSConfig){
		"unknown structure":     func(c *DSConfig) { c.Structure = "skiplist" },
		"empty structure":       func(c *DSConfig) { c.Structure = "" },
		"unknown scheme":        func(c *DSConfig) { c.Scheme = "hle-scmm" },
		"unknown lock":          func(c *DSConfig) { c.Lock = "mcss" },
		"zero threads":          func(c *DSConfig) { c.Threads = 0 },
		"too many threads":      func(c *DSConfig) { c.Threads = 65 },
		"negative size":         func(c *DSConfig) { c.Size = -1 },
		"negative cores":        func(c *DSConfig) { c.Cores = -1 },
		"negative mix":          func(c *DSConfig) { c.Mix = Mix{-1, 10} },
		"mix over 100":          func(c *DSConfig) { c.Mix = Mix{80, 30} },
		"ACfg on non-adaptive":  func(c *DSConfig) { c.Scheme = SchemeOptSLR },
		"malformed ACfg":        func(c *DSConfig) { c.ACfg = "5/2,16/5" },
		"zero-length forfeit":   func(c *DSConfig) { c.ACfg = "5/0,1/1,1/1,1/1" },
		"ACfg on lazysub":       func(c *DSConfig) { c.Scheme = SchemeLazySub },
		"unknown scheme no cfg": func(c *DSConfig) { c.Scheme, c.ACfg = "adaptive", "" },
	} {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted: %+v", name, c)
		}
	}

	bad := good
	bad.Lock = "mcss"
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), `unknown lock "mcss"`) {
			t.Fatalf("RunAll on a bad point: recovered %v, want an unknown-lock panic", r)
		}
	}()
	NewRunner().RunAll([]DSConfig{good, bad})
}
