// Package harness drives the paper's benchmarks: it wires machines,
// memories, locks, schemes and data structures into measured workloads, and
// regenerates every figure of the evaluation section (Figures 2, 3, 4, 9,
// 10 via the data-structure benchmarks here; Figure 11 via internal/stamp).
//
// Invariants: each benchmark point is one self-contained simulated machine,
// so a Result is a bit-for-bit deterministic function of its DSConfig; the
// Runner may compute independent points on parallel host goroutines and
// memoize them without affecting any result (asserted end to end by the
// golden seed-digest tests in golden_test.go).
package harness

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/obs"
	"elision/internal/sim"
)

// LockID selects a lock implementation; its values are core registry names.
type LockID string

// Lock identifiers.
const (
	LockTTAS      LockID = core.LockNameTTAS
	LockMCS       LockID = core.LockNameMCS
	LockTicketHLE LockID = core.LockNameTicketHLE
	LockCLHHLE    LockID = core.LockNameCLHHLE
)

// SchemeID selects an execution scheme; its values are core registry names.
type SchemeID string

// Scheme identifiers (§7's six schemes plus the no-locking baseline).
const (
	SchemeNoLock     SchemeID = core.SchemeNameNoLock
	SchemeStandard   SchemeID = core.SchemeNameStandard
	SchemeHLE        SchemeID = core.SchemeNameHLE
	SchemeHLERetries SchemeID = core.SchemeNameHLERetries
	SchemeHLESCM     SchemeID = core.SchemeNameHLESCM
	SchemeOptSLR     SchemeID = core.SchemeNameOptSLR
	SchemeSLRSCM     SchemeID = core.SchemeNameSLRSCM
	// SchemeHLESCMGrouped is the §6-Remark extension: SCM with per-conflict-
	// location auxiliary lock groups.
	SchemeHLESCMGrouped SchemeID = core.SchemeNameHLESCMGrouped
	// SchemeSLRSCMGrouped is grouped SCM over SLR attempts.
	SchemeSLRSCMGrouped SchemeID = core.SchemeNameSLRSCMGrouped
	// SchemeAdaptiveHLE / SchemeAdaptiveSLR are the ck_elide-style adaptive
	// family: per-abort-class retry budgets with forfeit windows, configured
	// per point via DSConfig.ACfg.
	SchemeAdaptiveHLE SchemeID = core.SchemeNameAdaptiveHLE
	SchemeAdaptiveSLR SchemeID = core.SchemeNameAdaptiveSLR
	// SchemeLazySub is the deliberately unsafe lazy-subscription scheme
	// (core.LazySub): SLR with an escaped, non-subscribing commit-time lock
	// check. It exists as the modelcheck adversary and is excluded from
	// AllSchemes (figures measure correct schemes); pair it with
	// DSConfig.HWFix to benchmark the hardware fix's cost.
	SchemeLazySub SchemeID = core.SchemeNameLazySub
)

// AllSchemes is §7's evaluation order.
var AllSchemes = []SchemeID{
	SchemeStandard, SchemeHLE, SchemeHLERetries, SchemeHLESCM, SchemeOptSLR, SchemeSLRSCM,
}

// Mix is an operation distribution over insert/delete/lookup, in percent.
type Mix struct {
	InsertPct int
	DeletePct int
}

// The paper's three contention mixes (§4, Figure 4).
var (
	// MixLookupOnly is "no contention": 100% lookups.
	MixLookupOnly = Mix{0, 0}
	// MixModerate is "moderate contention": 10% insert, 10% delete.
	MixModerate = Mix{10, 10}
	// MixExtensive is "extensive contention": 50% insert, 50% delete.
	MixExtensive = Mix{50, 50}
)

// Name renders a mix the way the paper labels it.
func (x Mix) Name() string {
	switch x {
	case MixLookupOnly:
		return "lookups-only"
	case MixModerate:
		return "20% updates"
	case MixExtensive:
		return "100% updates"
	default:
		return fmt.Sprintf("%d%%ins/%d%%del", x.InsertPct, x.DeletePct)
	}
}

// ParseMix parses an "insertPct,deletePct" flag value (the rest of the
// operations are lookups). Both percentages must be >= 0 and sum to at most
// 100.
func ParseMix(s string) (Mix, error) {
	var x Mix
	if _, err := fmt.Sscanf(strings.ReplaceAll(s, ",", " "), "%d %d", &x.InsertPct, &x.DeletePct); err != nil {
		return Mix{}, err
	}
	if x.InsertPct < 0 || x.DeletePct < 0 || x.InsertPct+x.DeletePct > 100 {
		return Mix{}, errors.New("percentages must be >= 0 and sum to at most 100")
	}
	return x, nil
}

// Structure selects the benchmark data structure.
type Structure string

// Structures.
const (
	StructTree Structure = "rbtree"
	StructHash Structure = "hashtable"
)

// DSConfig describes one data-structure benchmark point. It is comparable,
// so results can be memoized across figures that share points.
type DSConfig struct {
	Structure    Structure
	Threads      int
	Size         int // steady-state element count; key domain is [0, 2*Size)
	Mix          Mix
	Scheme       SchemeID
	Lock         LockID
	BudgetCycles uint64 // virtual-cycle budget per thread
	SlotCycles   uint64 // when >0, sample per-slot stats (Figure 3)
	Seed         uint64
	Quantum      uint64
	// Cores enables the SMT model (0 = one proc per core). The paper's
	// testbed maps to Cores=4 with Threads=8.
	Cores int
	// ACfg is the adaptive-family configuration in its canonical string form
	// (core.AdaptiveConfig.String, e.g. "5/2,16/5,0/8,3/3"). Empty means the
	// default config. Ignored by non-adaptive schemes; kept a string so
	// DSConfig stays comparable for memoization.
	ACfg string
	// HWFix arms htm.Config.AbortOnDangerousWhileUnsubscribed for the point:
	// the lazy-subscription hardware fix. Only lazysub behaves differently
	// under it (its speculative attempts abort and the lock path carries the
	// load); correct schemes never take a dangerous action.
	HWFix bool
}

// Validate reports the first field of the point the harness cannot run:
// an unknown structure, scheme or lock, a thread count the simulator
// rejects, a negative size or core count, an impossible mix, or an ACfg
// that does not parse or is set on a non-adaptive scheme. Callers taking
// points from user input check it first; Instance.Run panics on a point
// that fails it.
func (c DSConfig) Validate() error {
	switch {
	case c.Structure != StructTree && c.Structure != StructHash:
		return fmt.Errorf("harness: unknown structure %q (known: %s, %s)", c.Structure, StructTree, StructHash)
	case !slices.Contains(core.SchemeNames(), string(c.Scheme)):
		return fmt.Errorf("harness: unknown scheme %q (known: %s)", c.Scheme, strings.Join(core.SchemeNames(), ", "))
	case !slices.Contains(core.LockNames(), string(c.Lock)):
		return fmt.Errorf("harness: unknown lock %q (known: %s)", c.Lock, strings.Join(core.LockNames(), ", "))
	case c.Threads < 1 || c.Threads > sim.MaxProcs:
		return fmt.Errorf("harness: threads must be in [1,%d], got %d", sim.MaxProcs, c.Threads)
	case c.Size < 0:
		return fmt.Errorf("harness: size must be >= 0, got %d", c.Size)
	case c.Cores < 0:
		return fmt.Errorf("harness: cores must be >= 0, got %d", c.Cores)
	case c.Mix.InsertPct < 0 || c.Mix.DeletePct < 0 || c.Mix.InsertPct+c.Mix.DeletePct > 100:
		return fmt.Errorf("harness: mix %d,%d: percentages must be >= 0 and sum to at most 100",
			c.Mix.InsertPct, c.Mix.DeletePct)
	}
	if c.ACfg != "" {
		if !core.AdaptiveSchemeName(string(c.Scheme)) {
			return fmt.Errorf("harness: ACfg %q set on non-adaptive scheme %s", c.ACfg, c.Scheme)
		}
		if _, err := core.ParseAdaptiveConfig(c.ACfg); err != nil {
			return fmt.Errorf("harness: ACfg %q: %w", c.ACfg, err)
		}
	}
	return nil
}

// Slot is one time-slot sample for Figure 3.
type Slot struct {
	Ops     uint64
	NonSpec uint64
}

// Result is the outcome of one benchmark point.
type Result struct {
	Config DSConfig
	Stats  core.Stats
	// Cycles is the virtual time the run actually covered.
	Cycles uint64
	// Slots is the per-slot timeline when Config.SlotCycles > 0.
	Slots []Slot
	// LockLines is the set of cache lines the point's lock protocol
	// occupies (nil when the lock cannot report them). Observed runs use it
	// to annotate the hot-line profiler's table and to assert whether the
	// lock's line is what transactions are aborting on.
	LockLines []int
}

// HasLockLine reports whether line belongs to the result's lock footprint.
func (r Result) HasLockLine(line int) bool {
	for _, l := range r.LockLines {
		if l == line {
			return true
		}
	}
	return false
}

// Throughput returns operations per million virtual cycles.
func (r Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Stats.Ops) * 1e6 / float64(r.Cycles)
}

// buildLock constructs the lock for a point.
func buildLock(hm *htm.Memory, id LockID, procs int) locks.Elidable {
	l, err := core.BuildLock(hm, string(id), procs)
	if err != nil {
		panic(err)
	}
	return l
}

// buildScheme constructs the scheme for a point.
func buildScheme(hm *htm.Memory, id SchemeID, l locks.Elidable, procs int) core.Scheme {
	s, err := core.BuildScheme(hm, string(id), l, procs)
	if err != nil {
		panic(err)
	}
	return s
}

// memoryWords sizes simulated memory for a point: room for 2×Size live
// nodes, per-thread arena churn, hash buckets and slack.
func memoryWords(cfg DSConfig) int {
	nodes := 2*cfg.Size + cfg.Threads*64*8 + 4096
	words := nodes * 8
	if cfg.Structure == StructHash {
		words += bucketCount(cfg.Size) * 8
	}
	return words + 1<<16
}

// bucketCount picks the hash-table geometry for a target size.
func bucketCount(size int) int {
	b := 64
	for b < size {
		b <<= 1
	}
	return b
}

// dataStructure is the operation interface shared by both benchmarks.
type dataStructure interface {
	Insert(ac htm.Accessor, key, val int64) bool
	Delete(ac htm.Accessor, key int64) bool
	Lookup(ac htm.Accessor, key int64) (int64, bool)
}

// RunDataStructure executes one benchmark point and returns its result.
// Runs are deterministic functions of the config.
func RunDataStructure(cfg DSConfig) Result {
	return RunDataStructureObserved(cfg, nil)
}

// RunDataStructureObserved is RunDataStructure with observability attached:
// col (when non-nil) receives the run's metrics, hot lines and time series,
// and feeds its observers (a Tracer records the run's events for timelines
// and Chrome-trace export). Instrumentation only reads the simulation, so
// an observed run's virtual-time results equal the unobserved run's.
//
// Each call builds a throwaway Instance; campaigns reuse pooled instances
// via Runner / fleet instead.
func RunDataStructureObserved(cfg DSConfig, col *obs.Collector) Result {
	return NewInstance(nil).RunObserved(cfg, col)
}
