package main

import (
	"time"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/modelcheck"
	"elision/internal/sim"
)

// comboSeed mirrors modelcheck's per-combination seed stream (a splitmix64
// step from base offset by the combo index), so the traced campaign
// generates exactly the cases RunCampaign does; the traced-equals-untraced
// check catches any drift.
func comboSeed(base uint64, combo, i int) uint64 {
	z := base + uint64(combo)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) + uint64(i)
}

// mcLedger accumulates host time of traced modelcheck cases.
type mcLedger struct {
	cases     int
	caseNs    int64 // GenCase start to the end of shrinking
	setupNs   int64 // RunWith start to its SchemeBuilder call
	shrinkNs  int64
	stats     core.Stats
	shrunk    int
	fresh     int   // cases whose constructors were timed in isolation
	machineNs int64 // sim.New for those cases
	memoryNs  int64 // htm.NewMemory for those cases
}

func (l *mcLedger) merge(o *mcLedger) {
	l.cases += o.cases
	l.caseNs += o.caseNs
	l.setupNs += o.setupNs
	l.shrinkNs += o.shrinkNs
	l.stats.Merge(o.stats)
	l.shrunk += o.shrunk
	l.fresh += o.fresh
	l.machineNs += o.machineNs
	l.memoryNs += o.memoryNs
}

// mcWorker is one fleet worker's traced campaign state. Its build method
// is a modelcheck.SchemeBuilder that delegates to the core factory exactly
// as modelcheck's default does and only records when RunWith calls it.
type mcWorker struct {
	led     mcLedger
	builtAt time.Time
}

func (w *mcWorker) build(hm *htm.Memory, c modelcheck.Case) (core.Scheme, locks.Elidable, error) {
	w.builtAt = time.Now()
	l, err := core.BuildLock(hm, c.Lock, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	s, err := core.BuildScheme(hm, c.Scheme, l, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	return s, l, nil
}

// tracedCampaign runs cfg's grid case by case — GenCase, RunWith with the
// timestamping build method, ShrinkWhere on failure — and folds a Summary the
// way RunCampaign does (combo sums, totals and index-ordered failures; the
// expectation verdict is RunCampaign's alone).
func tracedCampaign(cfg modelcheck.CampaignConfig) (modelcheck.Summary, *mcLedger) {
	schemes, lockNames := modelcheck.RealSchemes(), modelcheck.RealLocks()
	type cell struct{ scheme, lock string }
	var grid []cell
	for _, s := range schemes {
		for _, l := range lockNames {
			grid = append(grid, cell{s, l})
		}
	}
	n := cfg.Seeds
	sum := modelcheck.Summary{
		SchemaVersion: modelcheck.SummarySchemaVersion,
		SeedBase:      cfg.SeedBase,
		SeedsPerCombo: n,
		Combos:        make([]modelcheck.ComboSummary, len(grid)),
		Failures:      []modelcheck.Failure{},
	}
	for i, g := range grid {
		sum.Combos[i] = modelcheck.ComboSummary{Scheme: g.scheme, Lock: g.lock}
	}
	results := make([]modelcheck.Result, len(grid)*n)
	failures := make([]*modelcheck.Failure, len(grid)*n)
	ws := make([]*mcWorker, workers)
	for i := range ws {
		ws[i] = &mcWorker{}
	}
	fleet.Run(fleet.Config{Workers: workers}, len(results), func(w, j int) {
		st := ws[w]
		combo, i := j/n, j%n
		g := grid[combo]
		t0 := time.Now()
		c := modelcheck.GenCase(g.scheme, g.lock, comboSeed(cfg.SeedBase, combo, i))
		c.HWFix = cfg.HWFix
		runStart := time.Now()
		r := modelcheck.RunWith(c, st.build)
		st.led.setupNs += st.builtAt.Sub(runStart).Nanoseconds()
		if len(r.Violations) > 0 {
			f := &modelcheck.Failure{
				Repro:    r.Case.Repro(),
				Oracle:   r.Violations[0].Oracle,
				Detail:   r.Violations[0].Detail,
				Expected: r.Unexpected() == 0,
			}
			if cfg.Shrink {
				keep := func(rr modelcheck.Result) bool { return rr.Unexpected() > 0 }
				if f.Expected {
					keep = func(rr modelcheck.Result) bool { return rr.Expected() > 0 }
				}
				ts := time.Now()
				f.ShrunkRepro = modelcheck.ShrinkWhere(r.Case, st.build, keep).Repro()
				st.led.shrinkNs += time.Since(ts).Nanoseconds()
				st.led.shrunk++
			}
			failures[j] = f
		}
		st.led.caseNs += time.Since(t0).Nanoseconds()
		st.led.cases++
		st.led.stats.Merge(r.Stats)
		results[j] = r
	})
	for j, r := range results {
		cs := &sum.Combos[j/n]
		cs.Cases++
		cs.Violations += len(r.Violations)
		cs.ExpectedViolations += r.Expected()
		cs.Ops += r.Stats.Ops
		cs.SpecOps += r.Stats.Spec
		cs.Fallbacks += r.Stats.NonSpec
		cs.Aborts += r.Stats.Aborts
		if r.Deadlock {
			cs.Deadlocks++
		}
		sum.TotalCases++
		sum.TotalViolations += len(r.Violations)
		sum.TotalExpected += r.Expected()
		sum.TotalUnexpected += r.Unexpected()
		if failures[j] != nil {
			sum.Failures = append(sum.Failures, *failures[j])
		}
	}
	led := &mcLedger{}
	for _, w := range ws {
		led.merge(&w.led)
	}
	return sum, led
}

// timeConstructors times, in isolation, the sim.New and htm.NewMemory calls
// RunWith makes for each of the given cases (modelcheck sizes every case's
// memory at 1<<18 words). They cannot be timed separately inside RunWith
// from outside the program.
func timeConstructors(cases []modelcheck.Case, led *mcLedger) error {
	for _, c := range cases {
		t0 := time.Now()
		m, err := sim.New(sim.Config{Procs: c.Threads, Seed: c.Seed, Quantum: c.Quantum, Cores: c.Cores, JitterCycles: c.Jitter})
		if err != nil {
			return err
		}
		t1 := time.Now()
		htm.NewMemory(m, htm.Config{Words: 1 << 18, AbortOnDangerousWhileUnsubscribed: c.HWFix})
		led.machineNs += t1.Sub(t0).Nanoseconds()
		led.memoryNs += time.Since(t1).Nanoseconds()
		led.fresh++
	}
	return nil
}

// sameCampaign reports whether a traced Summary matches RunCampaign's on
// everything the traced fold computes.
func sameCampaign(a, b modelcheck.Summary) bool {
	if a.TotalCases != b.TotalCases || a.TotalViolations != b.TotalViolations ||
		a.TotalExpected != b.TotalExpected || a.TotalUnexpected != b.TotalUnexpected ||
		len(a.Combos) != len(b.Combos) || len(a.Failures) != len(b.Failures) {
		return false
	}
	for i := range a.Combos {
		if a.Combos[i] != b.Combos[i] {
			return false
		}
	}
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			return false
		}
	}
	return true
}
