package harness

import (
	"fmt"

	"elision/internal/core"
)

// adaptiveFrontierSchemes orders the frontier comparison: the fixed-policy
// baselines first, then the adaptive family carrying the candidate config.
var adaptiveFrontierSchemes = []SchemeID{
	SchemeStandard, SchemeHLE, SchemeHLERetries, SchemeOptSLR, SchemeSLRSCM,
	SchemeAdaptiveHLE, SchemeAdaptiveSLR,
}

// AdaptiveFrontier compares the adaptive family under one candidate config
// (empty = core's default) against the fixed-policy schemes on the §4
// serialization-dynamics workload, over the unfair TTAS and fair MCS locks.
// It is the replay surface for cmd/tune winners: reproduce -adaptive <cfg>
// and cmd/tune's frontier both read from this point set.
func AdaptiveFrontier(r *Runner, sc Scale, acfg string) []Table {
	nt := sc.maxThreads()
	locks := []LockID{LockTTAS, LockMCS}
	point := func(scheme SchemeID, lock LockID) DSConfig {
		cfg := sc.Section4Config(scheme, lock)
		if core.AdaptiveSchemeName(string(scheme)) {
			cfg.ACfg = acfg
		}
		return cfg
	}
	var cfgs []DSConfig
	for _, lock := range locks {
		for _, scheme := range adaptiveFrontierSchemes {
			cfgs = append(cfgs, point(scheme, lock))
		}
	}
	r.RunAll(cfgs)

	label := acfg
	if label == "" {
		label = "default"
	}
	thr := Table{
		Title: fmt.Sprintf("Adaptive frontier: ops/Mcycle on the §4 workload, %d threads, config %s",
			nt, label),
		Columns: []string{"scheme", "ttas", "mcs", "spec-ttas", "spec-mcs"},
	}
	forfeit := Table{
		Title:   "Adaptive frontier: forfeit-window activity (windows opened / ops forfeited)",
		Columns: []string{"scheme", "lock", "entries", "exits", "forfeited-ops", "ops"},
	}
	for _, scheme := range adaptiveFrontierSchemes {
		var ops [2]float64
		var spec [2]float64
		for i, lock := range locks {
			res := r.Run(point(scheme, lock))
			ops[i] = res.Throughput()
			spec[i] = 1 - res.Stats.NonSpecFraction()
			if s := res.Stats; s.ForfeitEntries > 0 || s.ForfeitOps > 0 {
				forfeit.AddRow(string(scheme), string(lock),
					U(s.ForfeitEntries), U(s.ForfeitExits), U(s.ForfeitOps), U(s.Ops))
			}
		}
		thr.AddRow(string(scheme), F2(ops[0]), F2(ops[1]), F3(spec[0]), F3(spec[1]))
	}
	if len(forfeit.Rows) == 0 {
		forfeit.AddRow("(none)", "-", "-", "-", "-", "-")
	}
	return []Table{thr, forfeit}
}
