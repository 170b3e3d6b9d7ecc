package harness

import (
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
)

// Section4Config is the §4 serialization-dynamics workload as a benchmark
// point: a size-64 tree under 20% updates at the scale's maximum thread
// count, over the given scheme and lock. With SchemeHLE over LockMCS it is
// the canonical lemming run; the same point under SchemeOptSLR shows the
// collapse absent.
func (sc Scale) Section4Config(scheme SchemeID, lock LockID) DSConfig {
	return DSConfig{
		Structure:    StructTree,
		Threads:      sc.maxThreads(),
		Size:         64,
		Mix:          MixModerate,
		Scheme:       scheme,
		Lock:         lock,
		BudgetCycles: sc.Budget,
		Seed:         sc.Seed,
		Quantum:      sc.Quantum,
		Cores:        sc.Cores,
	}
}

// ObservedRun executes one benchmark point with a full observability rig
// attached and returns the result alongside the fed collector and the
// tracer observing it. The collector's window width is sized to the run:
// ~20 windows across the cycle budget, so the lemming collapse is visible
// as a handful of numbers.
func ObservedRun(cfg DSConfig) (Result, *obs.Collector, *obs.Tracer) {
	col := obs.NewCollector(string(cfg.Scheme), string(cfg.Lock), cfg.BudgetCycles/20)
	tr := obs.NewTracer()
	col.AddObserver(tr)
	res := RunDataStructureObserved(cfg, col)
	return res, col, tr
}

// CausalRun is ObservedRun with the abort-causality engine attached: the
// returned engine holds the run's causality graph, abort classification and
// serialization epochs, and its scorecard is part of the collector's text
// dump. ccfg's zero value selects the engine defaults.
func CausalRun(cfg DSConfig, ccfg causality.Config) (Result, *obs.Collector, *obs.Tracer, *causality.Engine) {
	col := obs.NewCollector(string(cfg.Scheme), string(cfg.Lock), cfg.BudgetCycles/20)
	eng := causality.Attach(col, ccfg)
	tr := obs.NewTracer()
	col.AddObserver(tr)
	res := RunDataStructureObserved(cfg, col)
	return res, col, tr, eng
}

// FlightRun is CausalRun with the flight recorder in place of the tracer
// (the causality engine and the recorder share the feed through a Tee): the
// returned recorder holds the run's attempt chains and its cycle-partition
// aggregates sit in the collector's registry as flight_* families. fcfg's
// zero value selects the recorder defaults (raw-chain retention capped at
// flight.DefaultMaxChains).
func FlightRun(cfg DSConfig, ccfg causality.Config, fcfg flight.Config) (Result, *obs.Collector, *causality.Engine, *flight.Recorder) {
	col := obs.NewCollector(string(cfg.Scheme), string(cfg.Lock), cfg.BudgetCycles/20)
	eng := causality.Attach(col, ccfg)
	rec := flight.Attach(col, fcfg)
	res := RunDataStructureObserved(cfg, col)
	return res, col, eng, rec
}
