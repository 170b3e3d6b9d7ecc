package harness

import (
	"fmt"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/mem"
	"elision/internal/sim"
)

// FairnessComparison tests the claim of §1/§8 that SCM is "the only scheme
// that enables HLE-based fair locks, with starvation freedom and progress
// guarantees and with no performance degradation" — while Intel's retry
// recommendation "essentially turns fair locks into TTAS locks ... the lock
// no longer guarantees starvation-freedom and loses its fairness" (§2).
//
// Eight threads run a uniformly contended update workload over one MCS
// lock. For each scheme we report Jain's fairness index over per-thread
// completed operations (1.0 = perfectly fair), the min/max per-thread ops
// ratio, and the worst single-operation latency observed — the
// starvation-facing metric.
func FairnessComparison(sc Scale) []Table {
	nt := sc.maxThreads()
	schemes := []SchemeID{SchemeStandard, SchemeHLE, SchemeHLERetries, SchemeHLESCM, SchemeOptSLR, SchemeSLRSCM}
	t := Table{
		Title: fmt.Sprintf("Fairness over the MCS lock (§2's fairness claim): %d threads, uniform update workload",
			nt),
		Columns: []string{"scheme", "jain-index", "min/max-ops", "worst-latency", "ops/Mcycle"},
	}
	for _, s := range schemes {
		jain, minMax, worst, tput := runFairness(sc, nt, s)
		t.AddRow(string(s), F3(jain), F3(minMax), U(worst), F2(tput))
	}
	return []Table{t}
}

// runFairness executes the contended workload and computes the metrics.
func runFairness(sc Scale, threads int, schemeID SchemeID) (jain, minMax float64, worstLatency uint64, tput float64) {
	m := sim.MustNew(sim.Config{Procs: threads, Seed: sc.Seed, Quantum: sc.Quantum, Cores: sc.Cores})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 18})
	l, err := core.BuildLock(hm, string(LockMCS), threads)
	if err != nil {
		panic(err)
	}
	s, err := core.BuildScheme(hm, string(schemeID), l, threads)
	if err != nil {
		panic(err)
	}
	// A small array of hot lines: enough contention that serialization
	// matters, uniform so any skew is the scheme's doing.
	const hot = 4
	data := hm.Store().AllocLines(hot)
	ops := make([]uint64, threads)
	worst := make([]uint64, threads)
	for i := 0; i < threads; i++ {
		i := i
		m.Go(func(p *sim.Proc) {
			for p.Clock() < sc.Budget {
				line := data + mem.Addr(p.RandN(hot))*mem.LineWords
				start := p.Clock()
				s.Critical(p, func(c htm.Ctx) {
					c.Store(line, c.Load(line)+1)
					c.Work(40)
				})
				if lat := p.Clock() - start; lat > worst[i] {
					worst[i] = lat
				}
				ops[i]++
			}
		})
	}
	if err := m.Run(); err != nil {
		panic(fmt.Sprintf("harness: fairness run: %v", err))
	}

	var sum, sumSq float64
	minOps, maxOps := ops[0], ops[0]
	var maxClock uint64
	var total uint64
	for i := 0; i < threads; i++ {
		x := float64(ops[i])
		sum += x
		sumSq += x * x
		if ops[i] < minOps {
			minOps = ops[i]
		}
		if ops[i] > maxOps {
			maxOps = ops[i]
		}
		if worst[i] > worstLatency {
			worstLatency = worst[i]
		}
		total += ops[i]
		if c := m.Proc(i).Clock(); c > maxClock {
			maxClock = c
		}
	}
	jain = sum * sum / (float64(threads) * sumSq)
	minMax = float64(minOps) / float64(maxOps)
	tput = float64(total) * 1e6 / float64(maxClock)
	return jain, minMax, worstLatency, tput
}
