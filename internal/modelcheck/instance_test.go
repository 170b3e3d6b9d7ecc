package modelcheck

import (
	"reflect"
	"testing"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/sim"
)

// neverRelease takes the main lock non-speculatively and never releases
// it: the second critical section on any proc blocks forever, so every
// multi-op case deadlocks.
type neverRelease struct {
	hm *htm.Memory
	l  locks.Lock
}

func (s *neverRelease) Name() string { return "never-release" }

func (s *neverRelease) Critical(p *sim.Proc, body func(c htm.Ctx)) core.Outcome {
	s.l.Lock(p)
	body(htm.Ctx{P: p, M: s.hm})
	return core.Outcome{Attempts: 1}
}

func buildNeverRelease(hm *htm.Memory, c Case) (core.Scheme, locks.Elidable, error) {
	l, err := core.BuildLock(hm, c.Lock, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	return &neverRelease{hm: hm, l: l}, l, nil
}

// wrapBuilder builds the case's real scheme and lock, then wraps the scheme.
func wrapBuilder(wrap func(core.Scheme) core.Scheme) SchemeBuilder {
	return func(hm *htm.Memory, c Case) (core.Scheme, locks.Elidable, error) {
		s, l, err := factoryBuilder(hm, c)
		if err != nil {
			return nil, nil, err
		}
		return wrap(s), l, nil
	}
}

// TestCaseInstanceReuseMatchesFresh: one pooled instance running a mixed
// sequence of cases — thread counts 8 → 2 → 8, the hardware fix on and
// off, both structures, an adaptive config, a mutant builder and a
// deadlock — returns for each exactly the Result a fresh RunWith does,
// violation details included.
func TestCaseInstanceReuseMatchesFresh(t *testing.T) {
	with := func(c Case, f func(*Case)) Case { f(&c); return c }
	liar := wrapBuilder(func(s core.Scheme) core.Scheme { return &liarForfeit{inner: s} })
	steps := []struct {
		c     Case
		build SchemeBuilder
	}{
		{with(GenCase(core.SchemeNameOptSLR, core.LockNameMCS, 1), func(c *Case) {
			c.Threads, c.Struct = 8, StructRBTree
		}), nil},
		{with(GenCase(core.SchemeNameLazySub, core.LockNameTTAS, 2), func(c *Case) {
			c.Threads, c.Struct, c.HWFix = 2, StructHash, true
		}), nil},
		{with(GenCase(core.SchemeNameLazySub, core.LockNameTTAS, 3), func(c *Case) {
			c.Threads, c.Struct, c.Ops = 8, StructHash, 24
		}), nil},
		{with(GenCase(core.SchemeNameAdaptiveSLR, core.LockNameMCS, 4), func(c *Case) {
			c.Threads, c.Struct = 8, StructRBTree
		}), nil},
		{with(GenCase(core.SchemeNameAdaptiveSLR, core.LockNameTTAS, 5), func(c *Case) {
			c.Mutant = "liar-forfeit"
		}), liar},
		{with(GenCase(core.SchemeNameStandard, core.LockNameMCS, 6), func(c *Case) {
			c.Threads, c.Ops = 4, 3
		}), buildNeverRelease},
		// The same lock layout right after the deadlock, so registrations
		// the killed procs left on its lines would be woken.
		{with(GenCase(core.SchemeNameStandard, core.LockNameMCS, 6), func(c *Case) {
			c.Threads, c.Ops = 4, 12
		}), nil},
		{with(GenCase(core.SchemeNameHLESCM, core.LockNameCLHHLE, 7), func(c *Case) {
			c.Threads, c.Struct = 8, StructRBTree
		}), nil},
	}
	var in instance
	var sawViolation, sawDeadlock, sawAdaptive bool
	for i, s := range steps {
		want := RunWith(s.c, s.build)
		got := in.run(s.c, s.build)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): pooled result differs from fresh\npooled %+v\nfresh  %+v",
				i, s.c.Repro(), got, want)
		}
		sawViolation = sawViolation || len(want.Violations) > 0
		sawDeadlock = sawDeadlock || want.Deadlock
		sawAdaptive = sawAdaptive || want.Case.ACfg != ""
	}
	if !sawViolation || !sawDeadlock || !sawAdaptive {
		t.Fatalf("sequence lost coverage: violation %v, deadlock %v, adaptive %v",
			sawViolation, sawDeadlock, sawAdaptive)
	}
	if in.hw.Builds != 1 || in.hw.Resets != uint64(len(steps)-1) {
		t.Fatalf("instance built %d times and reset %d, want 1 and %d",
			in.hw.Builds, in.hw.Resets, len(steps)-1)
	}
}
