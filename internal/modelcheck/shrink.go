package modelcheck

import "elision/internal/core"

// Shrink greedily minimizes a failing case: it tries reductions in the
// order fewer procs → fewer ops → smaller key/line set → fewer containers →
// simpler structure → no skew/SMT/quantum/jitter, keeping a candidate
// whenever the reduced case still violates at least one oracle, and repeats
// to a fixpoint. Because every run is deterministic, the result is a
// minimal deterministic reproducer, not a flaky approximation.
//
// build mirrors RunWith's parameter: nil shrinks a real-scheme case, a
// mutant's builder shrinks a mutant catch.
func Shrink(c Case, build SchemeBuilder) Case {
	return ShrinkWhere(c, build, func(r Result) bool { return len(r.Violations) > 0 })
}

// ShrinkWhere is Shrink with a caller-chosen failure predicate: a candidate
// is kept only while keep(result) holds. Expected-fail schemes use it to
// shrink an exhibit without letting the minimization wander onto a case
// whose only violations are of a different class (e.g. from an expected
// commit-safety demonstration to an unexpected accounting bug, or vice
// versa).
//
// Every candidate replays on one instance, reset between runs.
func ShrinkWhere(c Case, build SchemeBuilder, keep func(Result) bool) Case {
	return shrinkWhere(new(instance), c, build, keep)
}

// shrinkWhere is ShrinkWhere replaying every candidate on in: a campaign
// worker shrinks on its own instance.
func shrinkWhere(in *instance, c Case, build SchemeBuilder, keep func(Result) bool) Case {
	c = c.withDefaults()
	stillFails := func(cand Case) bool {
		return keep(in.run(cand, build))
	}
	if !stillFails(c) {
		// Not reproducibly failing (should not happen for a Result with
		// violations); return unchanged rather than "shrink" to noise.
		return c
	}
	for pass := 0; pass < 8; pass++ {
		changed := false
		attempt := func(cand Case) {
			cand = cand.withDefaults()
			if cand != c && stillFails(cand) {
				c = cand
				changed = true
			}
		}
		// Fewer procs.
		for c.Threads > 2 {
			cand := c
			cand.Threads = c.Threads / 2
			if cand.Threads < 2 {
				cand.Threads = 2
			}
			if cand.Cores > 0 {
				cand.Cores = cand.Threads / 2
			}
			cand = cand.withDefaults()
			if !stillFails(cand) {
				break
			}
			c = cand
			changed = true
		}
		// Fewer ops.
		for c.Ops > 1 {
			cand := c
			cand.Ops = c.Ops / 2
			if !stillFails(cand.withDefaults()) {
				break
			}
			c = cand.withDefaults()
			changed = true
		}
		// Smaller line set: shrink the key domain.
		for c.Keys > 1 {
			cand := c
			cand.Keys = c.Keys / 2
			if !stillFails(cand.withDefaults()) {
				break
			}
			c = cand.withDefaults()
			changed = true
		}
		// Structural simplifications, one at a time.
		if c.Objs > 1 {
			cand := c
			cand.Objs, cand.MovePct = 1, 0
			attempt(cand)
		}
		if c.Struct != StructHash {
			cand := c
			cand.Struct = StructHash
			attempt(cand)
		}
		if c.Skew != 0 {
			cand := c
			cand.Skew = 0
			attempt(cand)
		}
		if c.Cores != 0 {
			cand := c
			cand.Cores = 0
			attempt(cand)
		}
		if c.Quantum != 0 {
			cand := c
			cand.Quantum = 0
			attempt(cand)
		}
		if c.Jitter != 0 {
			cand := c
			cand.Jitter = 0
			attempt(cand)
		}
		if def := core.DefaultAdaptiveConfig().String(); c.ACfg != "" && c.ACfg != def {
			cand := c
			cand.ACfg = def
			attempt(cand)
		}
		if !changed {
			break
		}
	}
	return c
}
