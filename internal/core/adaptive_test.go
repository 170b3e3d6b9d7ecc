package core

import (
	"strings"
	"testing"

	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/sim"
)

func TestAdaptiveConfigRoundTrip(t *testing.T) {
	for _, s := range []string{
		DefaultAdaptiveConfig().String(),
		"0/1,0/1,0/1,0/1",
		"10/2,256/5,0/8,3/3",
	} {
		c, err := ParseAdaptiveConfig(s)
		if err != nil {
			t.Fatalf("ParseAdaptiveConfig(%q): %v", s, err)
		}
		if got := c.String(); got != s {
			t.Errorf("round-trip %q -> %q", s, got)
		}
	}
}

func TestAdaptiveConfigRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ in, wantSub string }{
		{"5/2,16/5,0/8", "pairs"},              // missing a class
		{"5/2,16/5,0/8,3/3,1/1", "pairs"},      // extra class
		{"5,16/5,0/8,3/3", "retry/forfeit"},    // not a pair
		{"x/2,16/5,0/8,3/3", "bad"},            // non-numeric retry
		{"5/y,16/5,0/8,3/3", "bad"},            // non-numeric forfeit
		{"-1/2,16/5,0/8,3/3", "retry budget"},  // negative budget
		{"5/0,16/5,0/8,3/3", "forfeit window"}, // zero-length window
		{"5/-3,16/5,0/8,3/3", "forfeit window"},
	} {
		if _, err := ParseAdaptiveConfig(tc.in); err == nil {
			t.Errorf("ParseAdaptiveConfig(%q) accepted a malformed config", tc.in)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseAdaptiveConfig(%q) error %q, want mention of %q", tc.in, err, tc.wantSub)
		}
	}
}

func TestAdaptiveMaxAborts(t *testing.T) {
	c := AdaptiveConfig{Retry: [NumAbortClasses]int{5, 16, 0, 3}, Forfeit: [NumAbortClasses]int{1, 1, 1, 1}}
	if got := c.MaxAborts(); got != 25 {
		t.Fatalf("MaxAborts = %d, want 25 (5+16+0+3+1)", got)
	}
}

func TestClassifyAbort(t *testing.T) {
	cases := []struct {
		st   htm.Status
		want AbortClass
	}{
		{htm.Status{Cause: htm.CauseConflict}, ClassConflict},
		{htm.Status{Cause: htm.CauseCapacity}, ClassCapacity},
		{htm.Status{Cause: htm.CauseExplicit, Code: CodeSLRLockHeld}, ClassBusy},
		{htm.Status{Cause: htm.CauseExplicit, Code: CodeNonSpecRun}, ClassBusy},
		{htm.Status{Cause: htm.CauseExplicit, Code: CodeLockBusy}, ClassBusy},
		{htm.Status{Cause: htm.CauseExplicit, Code: 99}, ClassOther},
		{htm.Status{Cause: htm.CauseSpurious}, ClassOther},
		{htm.Status{Cause: htm.CauseInterrupt}, ClassOther},
		{htm.Status{Cause: htm.CauseHLEMismatch}, ClassOther},
	}
	for _, tc := range cases {
		if got := ClassifyAbort(tc.st); got != tc.want {
			t.Errorf("ClassifyAbort(%v/%d) = %v, want %v", tc.st.Cause, tc.st.Code, got, tc.want)
		}
	}
}

// adaptiveRig builds a 2-word shared counter workload over an adaptive
// scheme and returns its per-op outcomes in completion order.
func adaptiveRig(t *testing.T, mode AdaptiveMode, cfg AdaptiveConfig, threads, ops int) (Stats, []Outcome) {
	t.Helper()
	m := sim.MustNew(sim.Config{Procs: threads, Seed: 7})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 14, Cost: testCost()})
	l := locks.NewTTAS(hm)
	s := NewAdaptive(hm, l, mode, threads)
	if err := s.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	cnt := hm.Store().AllocLines(1)
	var stats Stats
	var outs []Outcome
	for i := 0; i < threads; i++ {
		m.Go(func(p *sim.Proc) {
			for k := 0; k < ops; k++ {
				o := s.Critical(p, func(c htm.Ctx) {
					v := c.Load(cnt)
					c.Work(10 + p.RandN(20))
					c.Store(cnt, v+1)
				})
				stats.Add(o)
				outs = append(outs, o)
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatalf("machine: %v", err)
	}
	if got := hm.Store().Load(cnt); got != int64(threads*ops) {
		t.Fatalf("counter = %d, want %d (lost updates)", got, threads*ops)
	}
	return stats, outs
}

func TestAdaptiveCompletesAndCounts(t *testing.T) {
	for _, mode := range []AdaptiveMode{AdaptiveOverHLE, AdaptiveOverSLR} {
		stats, _ := adaptiveRig(t, mode, DefaultAdaptiveConfig(), 4, 50)
		if stats.Ops != 200 {
			t.Fatalf("mode %d: ops = %d, want 200", mode, stats.Ops)
		}
		if stats.Attempts != stats.Aborts+stats.Ops {
			t.Fatalf("mode %d: attempts %d != aborts %d + ops %d",
				mode, stats.Attempts, stats.Aborts, stats.Ops)
		}
		if stats.ForfeitEntries != stats.ForfeitExits {
			// Every opened window must eventually drain in a long-enough run;
			// with 50 ops/thread after the last entry there is always room.
			t.Logf("mode %d: entries %d exits %d (window may be open at end)",
				mode, stats.ForfeitEntries, stats.ForfeitExits)
		}
	}
}

// TestAdaptiveForfeitWindow drives the state machine directly: with a zero
// conflict budget and a window of 3, the first conflict abort must open a
// 3-acquisition forfeit window, all three forfeited ops must go straight to
// the lock, and the third must close the window.
func TestAdaptiveForfeitWindow(t *testing.T) {
	cfg := AdaptiveConfig{
		Retry:   [NumAbortClasses]int{0, 8, 0, 0},
		Forfeit: [NumAbortClasses]int{3, 1, 1, 1},
	}
	stats, outs := adaptiveRig(t, AdaptiveOverSLR, cfg, 2, 40)
	if stats.ForfeitEntries == 0 {
		t.Fatal("contended run never exhausted the zero conflict budget")
	}
	if stats.ForfeitOps == 0 {
		t.Fatal("forfeit windows opened but no op ran forfeited")
	}
	// Replay the per-thread state machine over the recorded outcomes: the
	// sim's single-runner invariant serializes appends, but outcomes of the
	// two procs interleave, so track windows per proc via the op order of
	// each proc... outcomes don't carry tids; instead verify the aggregate
	// invariants the machine guarantees.
	var opened, closed, forfeited int
	for _, o := range outs {
		if o.ForfeitEntered {
			opened++
			if o.ExhaustedClass != ClassConflict {
				t.Fatalf("budget exhausted on %v, want conflict", o.ExhaustedClass)
			}
			if o.Speculative {
				t.Fatal("a forfeit-entering op cannot have committed speculatively")
			}
		}
		if o.Forfeited {
			forfeited++
			if o.Aborts != 0 || o.Attempts != 1 {
				t.Fatalf("forfeited op ran %d attempts / %d aborts, want 1/0", o.Attempts, o.Aborts)
			}
		}
		if o.ForfeitExited {
			closed++
		}
	}
	if opened == 0 || forfeited < closed {
		t.Fatalf("opened %d, forfeited %d, closed %d: inconsistent window accounting",
			opened, forfeited, closed)
	}
	// Each closed window consumed exactly Forfeit[conflict]=3 forfeited ops.
	if forfeited < 3*closed {
		t.Fatalf("%d forfeited ops for %d closed windows, want >= %d", forfeited, closed, 3*closed)
	}
	if stats.ExhaustedByClass[ClassConflict] != stats.ForfeitEntries {
		t.Fatalf("exhaustion histogram %v does not match %d entries",
			stats.ExhaustedByClass, stats.ForfeitEntries)
	}
}

// TestAdaptiveAbortBound: no op may abort more than MaxAborts times.
func TestAdaptiveAbortBound(t *testing.T) {
	cfg := AdaptiveConfig{
		Retry:   [NumAbortClasses]int{1, 2, 0, 1},
		Forfeit: [NumAbortClasses]int{2, 2, 2, 2},
	}
	bound := cfg.MaxAborts()
	for _, mode := range []AdaptiveMode{AdaptiveOverHLE, AdaptiveOverSLR} {
		_, outs := adaptiveRig(t, mode, cfg, 4, 50)
		for _, o := range outs {
			if o.Aborts > bound {
				t.Fatalf("mode %d: op suffered %d aborts, config bounds it at %d", mode, o.Aborts, bound)
			}
		}
	}
}

func TestBuildAdaptiveSchemes(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 1})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 10})
	l := locks.NewTTAS(hm)
	for _, name := range []string{SchemeNameAdaptiveHLE, SchemeNameAdaptiveSLR} {
		s, err := BuildScheme(hm, name, l, 2)
		if err != nil {
			t.Fatalf("BuildScheme(%s): %v", name, err)
		}
		a := s.(*Adaptive)
		if a.Config() != DefaultAdaptiveConfig() {
			t.Fatalf("factory-built adaptive does not carry the default config")
		}
		if err := a.SetConfig(AdaptiveConfig{}); err == nil {
			t.Fatal("SetConfig accepted a zero (invalid forfeit) config")
		}
	}
	if !AdaptiveSchemeName(SchemeNameAdaptiveHLE) || AdaptiveSchemeName(SchemeNameOptSLR) {
		t.Fatal("AdaptiveSchemeName misclassifies")
	}
}

// TestRegistryRoundTrip ties every registered name to the object its
// factory builds: each lock and scheme must report its registry name from
// Name(). The locks package cannot import core, so this is the check that
// keeps locks.*.Name() and the registry in step.
func TestRegistryRoundTrip(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 1})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 12})
	for _, name := range LockNames() {
		l, err := BuildLock(hm, name, 2)
		if err != nil {
			t.Fatalf("BuildLock(%s): %v", name, err)
		}
		if l.Name() != name {
			t.Errorf("BuildLock(%s).Name() = %q", name, l.Name())
		}
	}
	l := locks.NewTTAS(hm)
	for _, name := range SchemeNames() {
		s, err := BuildScheme(hm, name, l, 2)
		if err != nil {
			t.Fatalf("BuildScheme(%s): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("BuildScheme(%s).Name() = %q", name, s.Name())
		}
	}
	if _, err := BuildLock(hm, "mcss", 2); err == nil {
		t.Error("BuildLock accepted an unknown name")
	}
	if _, err := BuildScheme(hm, "hlee", l, 2); err == nil {
		t.Error("BuildScheme accepted an unknown name")
	}
	seen := map[string]bool{}
	for _, name := range append(LockNames(), SchemeNames()...) {
		if seen[name] {
			t.Errorf("name %q is registered twice", name)
		}
		seen[name] = true
	}
}
