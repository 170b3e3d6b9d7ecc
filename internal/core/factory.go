package core

import (
	"fmt"

	"elision/internal/htm"
	"elision/internal/locks"
)

// Lock and scheme names (also used in benchmark output): the single
// declaration of each name. The factories accept exactly the names listed
// in lockTable and schemeTable below.
const (
	LockNameTTAS        = "ttas"
	LockNameTTASBackoff = "ttas-backoff"
	LockNameMCS         = "mcs"
	LockNameTicketHLE   = "ticket-hle"
	LockNameCLHHLE      = "clh-hle"

	SchemeNameNoLock     = "nolock"
	SchemeNameStandard   = "standard"
	SchemeNameHLE        = "hle"
	SchemeNameHLERetries = "hle-retries"
	SchemeNameHLESCM     = "hle-scm"
	SchemeNameOptSLR     = "opt-slr"
	SchemeNameSLRSCM     = "slr-scm"
	// Grouped-SCM variants (the §6 Remark extension), with 8 conflict
	// groups.
	SchemeNameHLESCMGrouped = "hle-scm-grouped"
	SchemeNameSLRSCMGrouped = "slr-scm-grouped"
	// Adaptive family (ck_elide-style per-abort-class budgets and forfeit
	// windows); built with DefaultAdaptiveConfig, tuned via
	// (*Adaptive).SetConfig.
	SchemeNameAdaptiveHLE = "adaptive-hle"
	SchemeNameAdaptiveSLR = "adaptive-slr"
	// LazySub: the deliberately unsafe lazy-subscription adversary
	// (commit-time lock check through a non-transactional escape; see
	// lazysub.go). Kept out of the benchmark roster's §7 ordering — it
	// exists to be broken by the modelcheck expected-fail campaign and
	// repaired by htm's AbortOnDangerousWhileUnsubscribed.
	SchemeNameLazySub = "lazysub"
)

// AdaptiveSchemeName reports whether name belongs to the adaptive family.
func AdaptiveSchemeName(name string) bool {
	return name == SchemeNameAdaptiveHLE || name == SchemeNameAdaptiveSLR
}

// GroupedSCMGroups is the auxiliary-lock count used by the factory's
// grouped-SCM schemes.
const GroupedSCMGroups = 8

// lockTable and schemeTable are the one list of accepted names: the
// factories, every CLI validator and help string, and the modelcheck roster
// read them. Row order is the enumeration order of LockNames/SchemeNames;
// append new rows at the end, because modelcheck keys each combination's
// seed stream on its position in that order.
var lockTable = []struct {
	name  string
	build func(hm *htm.Memory, procs int) locks.Elidable
}{
	{LockNameTTAS, func(hm *htm.Memory, _ int) locks.Elidable { return locks.NewTTAS(hm) }},
	{LockNameTTASBackoff, func(hm *htm.Memory, _ int) locks.Elidable { return locks.NewBackoffTTAS(hm) }},
	{LockNameMCS, func(hm *htm.Memory, procs int) locks.Elidable { return locks.NewMCS(hm, procs) }},
	{LockNameTicketHLE, func(hm *htm.Memory, procs int) locks.Elidable { return locks.NewTicketHLE(hm, procs) }},
	{LockNameCLHHLE, func(hm *htm.Memory, procs int) locks.Elidable { return locks.NewCLHHLE(hm, procs) }},
}

var schemeTable = []struct {
	name  string
	build func(hm *htm.Memory, l locks.Elidable, procs int) Scheme
}{
	{SchemeNameNoLock, func(hm *htm.Memory, _ locks.Elidable, _ int) Scheme { return NewNoLock(hm) }},
	{SchemeNameStandard, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme { return NewStandard(hm, l) }},
	{SchemeNameHLE, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme { return NewHLE(hm, l) }},
	{SchemeNameHLERetries, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme {
		return NewHLERetries(hm, l, DefaultMaxRetries)
	}},
	{SchemeNameHLESCM, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewSCM(hm, l, locks.NewMCS(hm, procs), SCMOverHLE)
	}},
	{SchemeNameOptSLR, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme { return NewSLR(hm, l) }},
	{SchemeNameSLRSCM, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewSCM(hm, l, locks.NewMCS(hm, procs), SCMOverSLR)
	}},
	{SchemeNameHLESCMGrouped, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewGroupedSCM(hm, l, SCMOverHLE, GroupedSCMGroups, procs)
	}},
	{SchemeNameSLRSCMGrouped, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewGroupedSCM(hm, l, SCMOverSLR, GroupedSCMGroups, procs)
	}},
	{SchemeNameAdaptiveHLE, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewAdaptive(hm, l, AdaptiveOverHLE, procs)
	}},
	{SchemeNameAdaptiveSLR, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewAdaptive(hm, l, AdaptiveOverSLR, procs)
	}},
	{SchemeNameLazySub, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme { return NewLazySub(hm, l) }},
}

// LockNames lists every lock name BuildLock accepts, in registry order. The
// caller owns the returned slice.
func LockNames() []string {
	out := make([]string, len(lockTable))
	for i, r := range lockTable {
		out[i] = r.name
	}
	return out
}

// SchemeNames lists every scheme name BuildScheme accepts, in registry
// order. The caller owns the returned slice.
func SchemeNames() []string {
	out := make([]string, len(schemeTable))
	for i, r := range schemeTable {
		out[i] = r.name
	}
	return out
}

// BuildLock constructs a lock by name over the given memory.
func BuildLock(hm *htm.Memory, name string, procs int) (locks.Elidable, error) {
	for _, r := range lockTable {
		if r.name == name {
			return r.build(hm, procs), nil
		}
	}
	return nil, fmt.Errorf("core: unknown lock %q", name)
}

// BuildScheme constructs a scheme by name over the given lock. SCM schemes
// get a fair MCS auxiliary lock, as in the paper's evaluation.
func BuildScheme(hm *htm.Memory, name string, l locks.Elidable, procs int) (Scheme, error) {
	for _, r := range schemeTable {
		if r.name == name {
			return r.build(hm, l, procs), nil
		}
	}
	return nil, fmt.Errorf("core: unknown scheme %q", name)
}
