package harness

import (
	"fmt"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/rbtree"
	"elision/internal/sim"
)

// CostSensitivity quantifies how the cost model's miss:hit ratio — the main
// synthetic knob in this reproduction — affects the headline results. For
// each ratio it reports the HLE speedup over the standard lock and the
// non-speculative fraction, for both locks at the canonical 128-node
// moderate-contention point. The qualitative structure (TTAS gains, MCS
// flat, MCS fully serialized) must hold across the sweep for the
// reproduction's conclusions to be robust; this table is the evidence.
func CostSensitivity(sc Scale) []Table {
	nt := sc.maxThreads()
	ratios := []uint64{1, 4, 8, 14, 28}
	t := Table{
		Title: fmt.Sprintf("Cost-model sensitivity: miss:hit ratio sweep, %d threads, 128-node tree, 20%% updates",
			nt),
		Columns: []string{"miss:hit", "ttas-hle-speedup", "mcs-hle-speedup", "ttas-nonspec", "mcs-nonspec"},
	}
	for _, missHit := range ratios {
		cost := sim.DefaultCost()
		cost.MemHit = 4
		cost.MemMiss = 4 * missHit
		var speed [2]float64
		var nonspec [2]float64
		for i, lock := range benchLocks {
			hle := runCostPoint(sc, nt, lock, SchemeHLE, cost)
			std := runCostPoint(sc, nt, lock, SchemeStandard, cost)
			speed[i] = ratio(hle.tput, std.tput)
			nonspec[i] = hle.nonspec
		}
		t.AddRow(fmt.Sprintf("%d:1", missHit), F2(speed[0]), F2(speed[1]), F3(nonspec[0]), F3(nonspec[1]))
	}
	return []Table{t}
}

// costPoint is one measured configuration under a custom cost model.
type costPoint struct {
	tput    float64
	nonspec float64
}

// runCostPoint runs the canonical tree point under an explicit cost model
// (outside the Runner cache, which is keyed for the default model).
func runCostPoint(sc Scale, threads int, lock LockID, scheme SchemeID, cost sim.CostModel) costPoint {
	m := sim.MustNew(sim.Config{Procs: threads, Seed: sc.Seed, Quantum: sc.Quantum, Cores: sc.Cores})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 18, Cost: cost})
	tree := rbtree.New(hm, threads)
	raw := htm.Raw{M: hm}
	for i := 0; i < 128; i++ {
		tree.Insert(raw, int64(i*2), 1)
	}
	l, err := core.BuildLock(hm, string(lock), threads)
	if err != nil {
		panic(err)
	}
	s, err := core.BuildScheme(hm, string(scheme), l, threads)
	if err != nil {
		panic(err)
	}
	var stats core.Stats
	for i := 0; i < threads; i++ {
		m.Go(func(p *sim.Proc) {
			for p.Clock() < sc.Budget {
				key := int64(p.RandN(256))
				r := p.RandN(100)
				switch {
				case r < 10:
					stats.Add(s.Critical(p, func(c htm.Ctx) { tree.Insert(c, key, 1) }))
				case r < 20:
					stats.Add(s.Critical(p, func(c htm.Ctx) { tree.Delete(c, key) }))
				default:
					stats.Add(s.Critical(p, func(c htm.Ctx) { tree.Lookup(c, key) }))
				}
			}
		})
	}
	if err := m.Run(); err != nil {
		panic(fmt.Sprintf("harness: cost point: %v", err))
	}
	var maxClock uint64
	for i := 0; i < threads; i++ {
		if c := m.Proc(i).Clock(); c > maxClock {
			maxClock = c
		}
	}
	return costPoint{
		tput:    float64(stats.Ops) * 1e6 / float64(maxClock),
		nonspec: stats.NonSpecFraction(),
	}
}
