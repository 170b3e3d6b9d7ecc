// Package mutants registers deliberately broken scheme and lock
// implementations that the modelcheck oracles must catch — the checker's
// own regression suite. Each mutant reproduces a real bug class from the
// literature:
//
//	stale-slr     — an "SLR" that samples the lock before the transaction
//	                and never subscribes to it: the lazy-subscription
//	                unsafety of Dice et al., committing from state read
//	                while a non-speculative holder was mid-critical-section.
//	scm-skip-aux  — an "SCM" that retries without ever taking the auxiliary
//	                lock, so conflicting threads never serialize among
//	                themselves (Figure 7's whole point).
//	unfair-ticket — a ticket lock whose release rolls the ticket counter
//	                back over other requesters' outstanding tickets,
//	                destroying fairness and eventually progress.
//	adaptive-ignore-forfeit — an "adaptive" scheme that classifies aborts
//	                and spends per-class budgets like the real family, but on
//	                exhaustion refills the budget and keeps speculating
//	                instead of opening a forfeit window: the abort-bound
//	                oracle's per-op ceiling (the config's summed budgets)
//	                is exceeded as soon as contention persists past one
//	                refill.
//	lazysub-eager — the inverse teeth check: a "lazysub" that subscribes
//	                eagerly (transactional commit-time check, SLR's
//	                containment) and is therefore safe. Safe is exactly
//	                wrong here — lazysub's expected-fail profile demands
//	                demonstrated violations, so the expectation gate
//	                (OracleExpectation) must flag the silence instead of
//	                reading it as green.
//
// The package is build-tag-free: the mutants compile into every build and
// the pinned-seed catch tests run in plain `go test`.
package mutants

import (
	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/modelcheck"
	"elision/internal/sim"
)

// All returns the mutant registry in fixed order.
func All() []modelcheck.Mutant {
	return []modelcheck.Mutant{
		{
			Name:          "stale-slr",
			ProfileScheme: core.SchemeNameOptSLR,
			Lock:          core.LockNameTTAS,
			SeedBudget:    8,
			Build:         buildStaleSLR,
		},
		{
			Name:          "scm-skip-aux",
			ProfileScheme: core.SchemeNameHLESCM,
			Lock:          core.LockNameMCS,
			SeedBudget:    8,
			Build:         buildSkipAuxSCM,
		},
		{
			Name:          "unfair-ticket",
			ProfileScheme: core.SchemeNameStandard,
			Lock:          core.LockNameTicketHLE,
			SeedBudget:    8,
			Build:         buildUnfairTicket,
		},
		{
			Name:          "adaptive-ignore-forfeit",
			ProfileScheme: core.SchemeNameAdaptiveSLR,
			Lock:          core.LockNameTTAS,
			SeedBudget:    8,
			Build:         buildIgnoreForfeit,
		},
		{
			Name:          "lazysub-eager",
			ProfileScheme: core.SchemeNameLazySub,
			Lock:          core.LockNameTTAS,
			SeedBudget:    8,
			Build:         buildEagerLazySub,
		},
	}
}

// Lookup resolves a mutant by name (for replaying reproducer strings that
// carry a mutant= field).
func Lookup(name string) (modelcheck.Mutant, bool) {
	for _, m := range All() {
		if m.Name == name {
			return m, true
		}
	}
	return modelcheck.Mutant{}, false
}

// --- stale-slr --------------------------------------------------------------

// staleSLR looks like SLR but checks the lock *before* the transaction
// starts (a stale snapshot) and never reads it inside: the transaction's
// read set does not contain the lock word, so a non-speculative acquisition
// cannot doom it and it may commit state observed mid-update. This is
// exactly the unsafe lazy subscription Dice et al. warn about.
type staleSLR struct {
	m          *htm.Memory
	l          locks.Lock
	MaxRetries int
}

var _ core.Scheme = (*staleSLR)(nil)

func buildStaleSLR(hm *htm.Memory, c modelcheck.Case) (core.Scheme, locks.Elidable, error) {
	l, err := core.BuildLock(hm, c.Lock, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	return &staleSLR{m: hm, l: l, MaxRetries: c.MaxRetries}, l, nil
}

func (s *staleSLR) Name() string { return "stale-slr" }

func (s *staleSLR) Critical(p *sim.Proc, body func(c htm.Ctx)) core.Outcome {
	var o core.Outcome
	for tries := 0; tries < s.MaxRetries; tries++ {
		// BUG: the lock is sampled non-transactionally before XBEGIN and
		// never subscribed to inside the transaction. Between this check
		// and the commit a fallback thread can acquire the lock and start
		// mutating — and this transaction will still commit.
		s.l.WaitUntilFree(p)
		o.Attempts++
		st := s.m.Atomic(p, func(tx *htm.Tx) {
			body(htm.Ctx{P: p, M: s.m})
		})
		if st.Committed {
			o.Speculative = true
			return o
		}
		o.Aborts++
		o.LastCause = st.Cause
		if !st.Retry {
			break
		}
	}
	o.Attempts++
	s.l.Lock(p)
	s.m.TraceLock(p)
	body(htm.Ctx{P: p, M: s.m})
	s.l.Unlock(p)
	s.m.TraceUnlock(p)
	return o
}

// --- scm-skip-aux -----------------------------------------------------------

// skipAuxSCM is SCM-over-HLE minus the auxiliary lock: aborted threads
// retry immediately instead of serializing behind the conflict community's
// auxiliary lock, so the serializing path that gives SCM its name (and its
// progress argument) never happens.
type skipAuxSCM struct {
	m          *htm.Memory
	main       locks.Lock
	MaxRetries int
}

var _ core.Scheme = (*skipAuxSCM)(nil)

func buildSkipAuxSCM(hm *htm.Memory, c modelcheck.Case) (core.Scheme, locks.Elidable, error) {
	l, err := core.BuildLock(hm, c.Lock, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	return &skipAuxSCM{m: hm, main: l, MaxRetries: c.MaxRetries}, l, nil
}

func (s *skipAuxSCM) Name() string { return "scm-skip-aux" }

func (s *skipAuxSCM) Critical(p *sim.Proc, body func(c htm.Ctx)) core.Outcome {
	var o core.Outcome
	retries := 0
	for {
		s.main.WaitUntilFree(p)
		o.Attempts++
		st := s.m.Atomic(p, func(tx *htm.Tx) {
			if s.main.HeldTx(tx) {
				tx.Abort(core.CodeNonSpecRun)
			}
			body(htm.Ctx{P: p, M: s.m})
		})
		if st.Committed {
			o.Speculative = true
			return o
		}
		o.Aborts++
		o.LastCause = st.Cause
		// BUG: Figure 7 lines 17-26 are missing — no auxiliary lock, no
		// serialization of the conflict community; the thread just retries
		// into the same storm.
		retries++
		if retries > s.MaxRetries {
			o.Attempts++
			s.main.Lock(p)
			s.m.TraceLock(p)
			body(htm.Ctx{P: p, M: s.m})
			s.main.Unlock(p)
			s.m.TraceUnlock(p)
			return o
		}
	}
}

// --- unfair-ticket ----------------------------------------------------------

// unfairTicket wraps the HLE-adapted ticket lock with a broken release that
// *unconditionally* rolls the "next" counter back to the owner value — the
// Figure 13 restore-CAS done without the compare. When other requesters
// hold outstanding tickets, the rollback erases their claims: new arrivals
// re-take the same tickets while the original waiters wait for an owner
// value that never comes.
type unfairTicket struct {
	*locks.TicketHLE
	m *htm.Memory
}

func buildUnfairTicket(hm *htm.Memory, c modelcheck.Case) (core.Scheme, locks.Elidable, error) {
	l := &unfairTicket{TicketHLE: locks.NewTicketHLE(hm, c.Threads), m: hm}
	s, err := core.BuildScheme(hm, c.Scheme, l, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	return s, l, nil
}

func (l *unfairTicket) Name() string { return "unfair-ticket" }

// Unlock implements locks.Lock with the broken release.
func (l *unfairTicket) Unlock(p *sim.Proc) {
	o := l.m.LoadNT(p, l.OwnerAddr())
	// BUG: Figure 13's release only rolls "next" back when the CAS proves
	// no other requester took a ticket; this store clobbers their tickets.
	l.m.StoreNT(p, l.NextAddr(), o)
}

// AcquireNT implements locks.Elidable via the embedded lock's fair path
// (the mutation is confined to the release).
func (l *unfairTicket) AcquireNT(p *sim.Proc) bool {
	l.Lock(p)
	return true
}

// --- adaptive-ignore-forfeit ------------------------------------------------

// ignoreForfeitAdaptive spends per-class retry budgets like the real
// adaptive-slr, but on exhaustion it refills the budget and keeps
// speculating — no forfeit window, no fallback — so a single operation's
// abort count sails past the config's MaxAborts ceiling. A hard cap on total
// aborts per operation keeps the mutant terminating (the checker detects
// deadlock, not livelock); the cap sits far above the bound, so the
// abort-bound oracle fires long before the net does.
type ignoreForfeitAdaptive struct {
	m   *htm.Memory
	l   locks.Elidable
	cfg core.AdaptiveConfig
}

var _ core.Scheme = (*ignoreForfeitAdaptive)(nil)

func buildIgnoreForfeit(hm *htm.Memory, c modelcheck.Case) (core.Scheme, locks.Elidable, error) {
	l, err := core.BuildLock(hm, c.Lock, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := core.ParseAdaptiveConfig(c.ACfg)
	if err != nil {
		cfg = core.DefaultAdaptiveConfig()
	}
	return &ignoreForfeitAdaptive{m: hm, l: l, cfg: cfg}, l, nil
}

func (s *ignoreForfeitAdaptive) Name() string { return "adaptive-ignore-forfeit" }

// --- lazysub-eager -----------------------------------------------------------

// eagerLazySub claims to be lazysub but subscribes eagerly: its commit-time
// lock check is a transactional HeldTx (SLR's containment) instead of
// lazysub's escaped peek, so a fallback acquisition dooms the transaction
// and it can never commit into a live critical section. Safe — and safe is
// exactly wrong for a scheme whose expected-fail profile demands
// demonstrated commit-safety violations. RunMutant must catch the silence
// with OracleExpectation after the full seed budget; if it ever stops
// doing so, the campaign could no longer tell a repaired adversary from a
// working one.
type eagerLazySub struct {
	m          *htm.Memory
	l          locks.Lock
	fallback   *core.Standard // the shared lock-fallback bracket
	MaxRetries int
}

var _ core.Scheme = (*eagerLazySub)(nil)

func buildEagerLazySub(hm *htm.Memory, c modelcheck.Case) (core.Scheme, locks.Elidable, error) {
	l, err := core.BuildLock(hm, c.Lock, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	return &eagerLazySub{m: hm, l: l, fallback: core.NewStandard(hm, l), MaxRetries: c.MaxRetries}, l, nil
}

func (s *eagerLazySub) Name() string { return "lazysub-eager" }

func (s *eagerLazySub) Critical(p *sim.Proc, body func(c htm.Ctx)) core.Outcome {
	var o core.Outcome
	for tries := 0; tries < s.MaxRetries; tries++ {
		o.Attempts++
		st := s.m.Atomic(p, func(tx *htm.Tx) {
			body(htm.Ctx{P: p, M: s.m})
			// BUG (inverted): this read subscribes — the lock line enters
			// the read set, closing the unsafe check-to-commit window that
			// real lazysub leaves open.
			if s.l.HeldTx(tx) {
				tx.Abort(core.CodeLockBusy)
			}
		})
		if st.Committed {
			o.Speculative = true
			return o
		}
		o.Aborts++
		o.LastCause = st.Cause
		if !st.Retry {
			break
		}
		if st.Cause == htm.CauseExplicit && st.Code == core.CodeLockBusy {
			s.l.WaitUntilFree(p)
		}
	}
	o.Attempts++
	s.fallback.Critical(p, body)
	return o
}

func (s *ignoreForfeitAdaptive) Critical(p *sim.Proc, body func(c htm.Ctx)) core.Outcome {
	var o core.Outcome
	rem := s.cfg.Retry
	net := 2*s.cfg.MaxAborts() + 4
	for {
		o.Attempts++
		st := s.m.Atomic(p, func(tx *htm.Tx) {
			body(htm.Ctx{P: p, M: s.m})
			if s.l.HeldTx(tx) {
				tx.Abort(core.CodeSLRLockHeld)
			}
		})
		if st.Committed {
			o.Speculative = true
			return o
		}
		o.Aborts++
		o.LastCause = st.Cause
		cl := core.ClassifyAbort(st)
		if rem[cl] > 0 {
			rem[cl]--
			if cl == core.ClassBusy {
				s.l.WaitUntilFree(p)
			}
			continue
		}
		if o.Aborts < net {
			// BUG: the class's budget is exhausted — the adaptive contract
			// says open a forfeit window and take the lock. Refilling and
			// re-speculating into the same storm breaks the per-op abort
			// bound (and, in production, the progress story).
			rem = s.cfg.Retry
			continue
		}
		break
	}
	o.Attempts++
	s.l.Lock(p)
	s.m.TraceLock(p)
	body(htm.Ctx{P: p, M: s.m})
	s.l.Unlock(p)
	s.m.TraceUnlock(p)
	return o
}
