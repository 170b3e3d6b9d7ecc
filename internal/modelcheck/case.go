// Package modelcheck is a randomized-schedule fuzzing harness for the
// elision schemes: it generates seeded random workloads (mixed read/write
// critical sections, multiple containers, skewed key distributions, varying
// retry budgets, thread counts and SMT siblings), runs each Scheme×Lock
// combination from the factory surface under perturbed internal/sim
// schedules, and checks a battery of invariant oracles per run —
// serializability via internal/check, mutual exclusion on the main and
// auxiliary locks, SLR commit-safety, SCM progress and serializing-path
// structure, and conservation laws over the internal/obs counters and the
// abort-causality graph.
//
// Every run is a pure deterministic function of its Case, so a violation is
// carried as a compact {seed, config} reproducer string (Case.Repro /
// ParseRepro) that replays the exact failing execution; Shrink reduces a
// failing case to a minimal one before reporting.
//
// The oracles themselves are regression-tested artifacts: deliberately
// broken scheme mutants (internal/modelcheck/mutants) must each be caught
// within a pinned seed budget.
package modelcheck

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"elision/internal/core"
)

// Structure names for Case.Struct.
const (
	StructHash   = "hash"
	StructRBTree = "rbtree"
)

// reproPrefix versions the reproducer string format.
const reproPrefix = "mc1:"

// Case is one fully-specified model-checking run: workload shape, scheme,
// lock and schedule perturbation. A run is a bit-for-bit deterministic
// function of its Case, which is what makes reproducer strings possible.
type Case struct {
	// Seed drives every random decision of the run (schedule jitter and
	// per-proc workload choices).
	Seed uint64
	// Scheme and Lock name the factory combination under test. For mutant
	// runs Scheme names the real scheme whose oracle profile applies.
	Scheme string
	Lock   string
	// Mutant, when non-empty, names the registered broken-scheme mutant the
	// case ran against (the builder is resolved by the caller; see the
	// mutants package).
	Mutant string
	// Struct selects the container implementation (StructHash/StructRBTree).
	Struct string
	// Threads is the simulated thread count; Ops the critical sections per
	// thread.
	Threads int
	Ops     int
	// Keys is the key-domain size; smaller domains mean more conflicts.
	Keys int64
	// Objs is the number of containers guarded by the one lock (1 or 2);
	// with 2, MovePct of operations atomically move a key between them.
	Objs int
	// ReadPct is the percentage of lookup-only operations; MovePct the
	// percentage of cross-container moves (only meaningful when Objs > 1);
	// the rest split between inserts and deletes.
	ReadPct int
	MovePct int
	// Skew is the percentage of operations directed at the single hottest
	// key (0 = uniform).
	Skew int
	// MaxRetries is the speculative retry budget applied to retrying
	// schemes (HLE-retries, SLR, SCM).
	MaxRetries int
	// ACfg is the adaptive-family configuration in canonical string form
	// (core.AdaptiveConfig.String). Only meaningful when Scheme names an
	// adaptive scheme; withDefaults fills the core default then. The form
	// contains no ';' or '=', so it round-trips through reproducer strings.
	ACfg string
	// Quantum, Cores and Jitter perturb the schedule (sim.Config fields).
	Quantum uint64
	Cores   int
	Jitter  uint64
	// HWFix enables htm's AbortOnDangerousWhileUnsubscribed for the run —
	// the lazy-subscription hardware fix. With it set, lazysub's oracle
	// profile is the ordinary must-pass one (the fix makes the scheme
	// safe); without it lazysub runs under the expected-fail profile.
	// Serialized as "hwfix=1" in reproducer strings, omitted when false so
	// pre-existing repro strings are unchanged.
	HWFix bool
}

// withDefaults clamps a Case into the runnable envelope.
func (c Case) withDefaults() Case {
	if c.Struct == "" {
		c.Struct = StructHash
	}
	if c.Threads < 1 {
		c.Threads = 2
	}
	if c.Ops < 1 {
		c.Ops = 1
	}
	if c.Keys < 1 {
		c.Keys = 1
	}
	if c.Objs < 1 {
		c.Objs = 1
	}
	if c.Objs > 2 {
		c.Objs = 2
	}
	if c.MaxRetries < 1 {
		c.MaxRetries = 1
	}
	if c.Objs == 1 {
		c.MovePct = 0
	}
	if core.AdaptiveSchemeName(c.Scheme) && c.ACfg == "" {
		c.ACfg = core.DefaultAdaptiveConfig().String()
	}
	return c
}

// Repro renders the case as its versioned reproducer string.
func (c Case) Repro() string {
	var b strings.Builder
	b.WriteString(reproPrefix)
	fmt.Fprintf(&b, "scheme=%s;lock=%s", c.Scheme, c.Lock)
	if c.Mutant != "" {
		fmt.Fprintf(&b, ";mutant=%s", c.Mutant)
	}
	fmt.Fprintf(&b, ";struct=%s;threads=%d;ops=%d;keys=%d;objs=%d;read=%d;move=%d;skew=%d;retries=%d;quantum=%d;cores=%d;jitter=%d",
		c.Struct, c.Threads, c.Ops, c.Keys, c.Objs, c.ReadPct, c.MovePct,
		c.Skew, c.MaxRetries, c.Quantum, c.Cores, c.Jitter)
	if c.ACfg != "" {
		fmt.Fprintf(&b, ";acfg=%s", c.ACfg)
	}
	if c.HWFix {
		b.WriteString(";hwfix=1")
	}
	fmt.Fprintf(&b, ";seed=0x%x", c.Seed)
	return b.String()
}

// ParseRepro decodes a reproducer string back into a Case. Format/Parse
// round-trip exactly, so error messages alone are enough to replay a
// failure.
func ParseRepro(s string) (Case, error) {
	var c Case
	if !strings.HasPrefix(s, reproPrefix) {
		return c, fmt.Errorf("modelcheck: reproducer must start with %q, got %q", reproPrefix, s)
	}
	for _, kv := range strings.Split(strings.TrimPrefix(s, reproPrefix), ";") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("modelcheck: malformed reproducer field %q", kv)
		}
		var err error
		switch k {
		case "scheme":
			c.Scheme = v
		case "lock":
			c.Lock = v
		case "mutant":
			c.Mutant = v
		case "struct":
			c.Struct = v
		case "threads":
			c.Threads, err = strconv.Atoi(v)
		case "ops":
			c.Ops, err = strconv.Atoi(v)
		case "keys":
			c.Keys, err = strconv.ParseInt(v, 10, 64)
		case "objs":
			c.Objs, err = strconv.Atoi(v)
		case "read":
			c.ReadPct, err = strconv.Atoi(v)
		case "move":
			c.MovePct, err = strconv.Atoi(v)
		case "skew":
			c.Skew, err = strconv.Atoi(v)
		case "retries":
			c.MaxRetries, err = strconv.Atoi(v)
		case "quantum":
			c.Quantum, err = strconv.ParseUint(v, 10, 64)
		case "cores":
			c.Cores, err = strconv.Atoi(v)
		case "jitter":
			c.Jitter, err = strconv.ParseUint(v, 10, 64)
		case "acfg":
			c.ACfg = v
		case "hwfix":
			var n int
			n, err = strconv.Atoi(v)
			c.HWFix = n != 0
		case "seed":
			c.Seed, err = strconv.ParseUint(strings.TrimPrefix(v, "0x"), 16, 64)
		default:
			return c, fmt.Errorf("modelcheck: unknown reproducer field %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("modelcheck: reproducer field %s=%q: %v", k, v, err)
		}
	}
	return c, nil
}

// splitmix is a splitmix64 stream for case generation: unlike xorshift it
// tolerates any seed including 0, and consecutive outputs are independent
// enough to slice into the case's many small parameter draws.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *splitmix) pick(vals ...int) int { return vals[r.intn(len(vals))] }

// GenCase derives a random-but-reproducible workload for one scheme/lock
// combination from seed. The distributions deliberately over-weight the
// contended corner of the space: tiny key domains, hot keys and schedule
// jitter are where schemes break.
func GenCase(scheme, lock string, seed uint64) Case {
	r := splitmix{s: seed}
	c := Case{
		Seed:       seed,
		Scheme:     scheme,
		Lock:       lock,
		Struct:     StructHash,
		Threads:    2 + r.intn(7),                 // 2..8
		Ops:        20 + r.intn(41),               // 20..60
		Keys:       int64(r.pick(4, 16, 64, 256)), // line-set size
		Objs:       1 + r.intn(2),                 // 1..2
		ReadPct:    r.pick(0, 25, 50, 75),
		Skew:       r.pick(0, 0, 25, 50),
		MaxRetries: r.pick(1, 2, 4, 10),
		Quantum:    uint64(r.pick(0, 64, 512)),
		Jitter:     uint64(r.pick(0, 0, 16, 256)),
	}
	if r.intn(4) == 0 {
		c.Struct = StructRBTree
	}
	if c.Objs == 2 {
		c.MovePct = r.pick(0, 20, 40)
	}
	if c.Threads >= 4 && r.intn(2) == 0 {
		c.Cores = c.Threads / 2 // SMT siblings
	}
	// Adaptive-family cases also draw a policy config. The draws happen after
	// every common draw, so non-adaptive schemes' case streams are unchanged
	// by the family's existence (pinned seeds stay pinned).
	if core.AdaptiveSchemeName(scheme) {
		var cfg core.AdaptiveConfig
		for i := range cfg.Retry {
			cfg.Retry[i] = r.pick(0, 1, 2, 4, 10)
			cfg.Forfeit[i] = r.pick(1, 2, 4, 8)
		}
		c.ACfg = cfg.String()
	}
	return c
}

// RealSchemes lists every thread-safe scheme the factory builds, in
// registry order (nolock is excluded: it is the single-thread baseline, not
// a synchronization scheme). The order is load-bearing: comboSeed keys on
// grid index, so new schemes join the registry at the end and every pinned
// case survives the roster growth. lazysub runs under the expected-fail
// profile unless Case.HWFix is set.
func RealSchemes() []string {
	return slices.DeleteFunc(core.SchemeNames(), func(s string) bool { return s == core.SchemeNameNoLock })
}

// RealLocks lists every lock the factory builds, in registry order.
func RealLocks() []string { return core.LockNames() }
