// Package core implements the paper's contribution: execution schemes that
// run lock-based critical sections over the simulated HTM.
//
// Six schemes are provided, matching §7's methodology:
//
//	Standard    — plain non-speculative locking.
//	HLE         — hardware lock elision as-is (Figure 1 dynamics): an abort
//	              re-executes the XACQUIRE instruction non-transactionally.
//	HLE-retries — Intel's recommendation: retry speculatively N times before
//	              acquiring the lock non-speculatively.
//	SLR         — software-assisted lock removal (Figure 5): transactions
//	              never touch the lock until commit time, where they read it
//	              and self-abort if it is held. Sacrifices opacity.
//	HLE-SCM     — software-assisted conflict management (Figure 7) over an
//	              HLE-style attempt: aborted threads serialize on an
//	              auxiliary lock and rejoin the speculative run.
//	SLR-SCM     — SCM over SLR attempts.
//
// Each scheme is one retry loop over shared pieces: the speculative
// attempts slrAttempt and hleAttempt, and locked, the one blocking fallback.
//
// A Scheme's Critical runs one critical section; the body receives an
// htm.Ctx whose loads and stores are transactional on the speculative path
// and plain accesses on the fallback path, so data-structure code is written
// once.
//
// Invariants: Critical must be called from the goroutine running p (the
// single-runner invariant), and a scheme's retry/fallback decisions draw
// randomness only from p's deterministic RNG — an execution is a
// bit-for-bit deterministic function of (machine config, scheme, lock,
// body behaviour). Aborted speculative attempts re-run the body, so Go-side
// side effects must be overwrite-idempotent.
package core

import (
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/sim"
)

// XABORT codes used by the schemes.
const (
	// CodeSLRLockHeld aborts an SLR transaction whose commit-time lock check
	// found the lock held (Figure 5, line 24).
	CodeSLRLockHeld = 1
	// CodeNonSpecRun aborts an RTM-elision transaction that observed the
	// main lock held at start (§6's Haswell-compatible implementation).
	CodeNonSpecRun = 2
	// CodeLockBusy aborts a retry-policy speculative attempt that observed
	// the lock busy at acquire time: the attempt is doomed, so the retry
	// loop aborts immediately rather than spinning in-transaction.
	CodeLockBusy = 3
)

// DefaultMaxRetries is the paper's retry budget before a thread gives up
// and acquires the lock non-speculatively (§7: 10 for HLE-retries, Opt SLR
// and the SCM auxiliary-lock holder).
const DefaultMaxRetries = 10

// Outcome describes how one critical section completed.
type Outcome struct {
	// Speculative is true when the section committed as a transaction
	// (an "S" operation in §4's accounting); false means it completed
	// holding the lock (an "N" operation).
	Speculative bool
	// Attempts counts executions of the critical section, speculative and
	// not (§4's per-operation attempt count).
	Attempts int
	// Aborts counts aborted speculative attempts ("A").
	Aborts int
	// AuxUsed is true when an SCM scheme routed the thread through the
	// serializing path (auxiliary lock).
	AuxUsed bool
	// AuxDwell is the number of cycles the thread spent holding auxiliary
	// locks (0 unless AuxUsed) — the serializing path's residency, which
	// bounds how long one conflict community stays serialized.
	AuxDwell uint64
	// LastCause is the abort cause of the final failed attempt, if any.
	LastCause htm.Cause
	// Forfeited is true when an adaptive scheme skipped elision for this
	// section because the thread was inside a forfeit window.
	Forfeited bool
	// ForfeitEntered is true when this section exhausted an abort class's
	// retry budget and opened a forfeit window for the thread.
	ForfeitEntered bool
	// ForfeitExited is true when this section consumed the thread's last
	// forfeited acquisition (the window closes; the next section may elide).
	ForfeitExited bool
	// ExhaustedClass is the abort class whose budget ran out. Meaningful
	// only when ForfeitEntered is set (adaptive schemes record ClassNone
	// otherwise; non-adaptive schemes leave the zero value).
	ExhaustedClass AbortClass
}

// Scheme executes critical sections under one locking/elision policy.
type Scheme interface {
	// Name identifies the scheme in benchmark output.
	Name() string
	// Critical runs body as one critical section and reports how it went.
	Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome
}

// ctx builds the accessor for proc p over memory m.
func ctx(m *htm.Memory, p *sim.Proc) htm.Ctx { return htm.Ctx{P: p, M: m} }

// locked runs body holding l non-speculatively: the fallback every scheme
// ends in. The trace calls are protocol, not decoration — TraceLock records
// the fallback holder the lazy-subscription hardware fix aborts against,
// and the commit-safety oracle reads the same lock/unlock events — so every
// blocking fallback goes through here.
func locked(m *htm.Memory, l locks.Lock, p *sim.Proc, body func(c htm.Ctx)) {
	m.TraceLockWait(p)
	l.Lock(p)
	m.TraceLock(p)
	body(ctx(m, p))
	l.Unlock(p)
	m.TraceUnlock(p)
}

// slrAttempt runs one SLR speculative execution (Figure 5): the body, then
// a transactional read of the lock that self-aborts if it is held.
func slrAttempt(m *htm.Memory, l locks.Lock, p *sim.Proc, body func(c htm.Ctx)) htm.Status {
	return m.Atomic(p, func(tx *htm.Tx) {
		body(ctx(m, p))
		if l.HeldTx(tx) {
			tx.Abort(CodeSLRLockHeld)
		}
	})
}

// hleAttempt runs one speculative execution with the lock elided
// (XACQUIRE/XRELEASE). If the elided acquire finds the lock busy, the
// attempt aborts at once with CodeLockBusy when abortBusy is set, and
// otherwise spins on the lock in-transaction until the coherency abort
// arrives (raw hardware, Figure 1 dynamics).
func hleAttempt(m *htm.Memory, l locks.Elidable, p *sim.Proc, body func(c htm.Ctx), abortBusy bool) htm.Status {
	return m.Atomic(p, func(tx *htm.Tx) {
		ok, wait := l.SpecAcquire(tx)
		if !ok {
			if abortBusy {
				tx.Abort(CodeLockBusy)
			}
			tx.Wait(wait)
		}
		body(ctx(m, p))
		l.SpecRelease(tx)
	})
}

// --- NoLock -----------------------------------------------------------------

// NoLock runs the body with no synchronization at all. It is the "single
// thread with no locking" baseline Figures 9 uses for normalization; using
// it with more than one thread is a caller bug.
type NoLock struct {
	m *htm.Memory
}

var _ Scheme = (*NoLock)(nil)

// NewNoLock returns the unsynchronized baseline scheme.
func NewNoLock(m *htm.Memory) *NoLock { return &NoLock{m: m} }

// Name implements Scheme.
func (s *NoLock) Name() string { return SchemeNameNoLock }

// Critical implements Scheme.
func (s *NoLock) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	body(ctx(s.m, p))
	return Outcome{Speculative: false, Attempts: 1}
}

// --- Standard ---------------------------------------------------------------

// Standard takes the lock non-speculatively around every critical section.
type Standard struct {
	m *htm.Memory
	l locks.Lock
}

var _ Scheme = (*Standard)(nil)

// NewStandard returns the plain locking scheme.
func NewStandard(m *htm.Memory, l locks.Lock) *Standard {
	return &Standard{m: m, l: l}
}

// Name implements Scheme.
func (s *Standard) Name() string { return SchemeNameStandard }

// Critical implements Scheme.
func (s *Standard) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	locked(s.m, s.l, p, body)
	return Outcome{Speculative: false, Attempts: 1}
}

// --- HLE --------------------------------------------------------------------

// HLE elides the lock with XACQUIRE/XRELEASE semantics. With SpecRetries=0
// it reproduces raw hardware behaviour: an abort re-executes the acquiring
// instruction non-transactionally (for TTAS a single TAS that may fail and
// lead back to speculation; for fair locks an irrevocable enqueue — the
// lemming effect). With SpecRetries=N it implements Intel's recommended
// retry policy ("HLE-retries").
type HLE struct {
	m           *htm.Memory
	l           locks.Elidable
	SpecRetries int
}

var _ Scheme = (*HLE)(nil)

// NewHLE returns raw hardware lock elision over l.
func NewHLE(m *htm.Memory, l locks.Elidable) *HLE {
	return &HLE{m: m, l: l}
}

// NewHLERetries returns Intel's recommended retry policy: only acquire the
// lock non-speculatively after retries failed speculative attempts.
func NewHLERetries(m *htm.Memory, l locks.Elidable, retries int) *HLE {
	return &HLE{m: m, l: l, SpecRetries: retries}
}

// Name implements Scheme.
func (s *HLE) Name() string {
	if s.SpecRetries > 0 {
		return SchemeNameHLERetries
	}
	return SchemeNameHLE
}

// Critical implements Scheme.
func (s *HLE) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	var o Outcome
	specTries := 0
	_, isTTAS := s.l.(*locks.TTAS)
	for {
		// Only TTAS tests-and-waits before issuing XACQUIRE (Figure 1's
		// outer loop); queue locks issue their XACQUIRE RMW immediately, so
		// a retry against an occupied queue burns a speculative attempt —
		// which is why naive retrying fails to rescue fair locks (§7.1).
		if isTTAS {
			s.l.WaitUntilFree(p)
		}
		o.Attempts++
		// Under the retry policy a busy lock means the attempt cannot
		// commit; abort now and burn the retry. This is why naive retrying
		// fails to rescue fair locks — during one serialization burst the
		// whole budget evaporates and the thread joins the queue anyway
		// (§7.1).
		st := hleAttempt(s.m, s.l, p, body, s.SpecRetries > 0)
		if st.Committed {
			o.Speculative = true
			return o
		}
		o.Aborts++
		o.LastCause = st.Cause
		if specTries < s.SpecRetries && st.Retry {
			// Intel's recommended fallback only retries when the abort
			// status' retry hint is set; capacity/eviction aborts go
			// straight to the lock.
			specTries++
			continue
		}
		if s.SpecRetries == 0 {
			// Raw HLE: the hardware re-executes the XACQUIRE instruction
			// non-transactionally.
			o.Attempts++
			s.m.TraceLockWait(p)
			if s.l.AcquireNT(p) {
				s.m.TraceLock(p)
				body(ctx(s.m, p))
				s.l.Unlock(p)
				s.m.TraceUnlock(p)
				return o
			}
			// TTAS only: the re-executed TAS observed the lock held; spin
			// and re-enter speculation (Figure 1's software loop).
			continue
		}
		// Retry budget exhausted: blocking non-speculative acquisition.
		o.Attempts++
		locked(s.m, s.l, p, body)
		return o
	}
}

// --- SLR --------------------------------------------------------------------

// SLR is software-assisted lock removal (Figure 5): the critical section
// runs as a transaction that never touches the lock; at the end it reads the
// lock and self-aborts if held, guaranteeing no inconsistent state commits.
// After MaxRetries failed attempts (or a non-retryable abort status, §7's
// tuning) the thread acquires the lock non-speculatively.
type SLR struct {
	m          *htm.Memory
	l          locks.Lock
	MaxRetries int
}

var _ Scheme = (*SLR)(nil)

// NewSLR returns the optimistic SLR scheme over any lock.
func NewSLR(m *htm.Memory, l locks.Lock) *SLR {
	return &SLR{m: m, l: l, MaxRetries: DefaultMaxRetries}
}

// Name implements Scheme.
func (s *SLR) Name() string { return SchemeNameOptSLR }

// Critical implements Scheme.
func (s *SLR) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	var o Outcome
	for tries := 0; tries < s.MaxRetries; tries++ {
		o.Attempts++
		st := slrAttempt(s.m, s.l, p, body)
		if st.Committed {
			o.Speculative = true
			return o
		}
		o.Aborts++
		o.LastCause = st.Cause
		if !st.Retry {
			break // capacity etc.: retrying cannot succeed
		}
		if st.Cause == htm.CauseExplicit && st.Code == CodeSLRLockHeld {
			// A non-speculative thread holds the lock; wait for it to leave
			// rather than burn attempts that must fail the commit check.
			s.l.WaitUntilFree(p)
		}
	}
	o.Attempts++
	locked(s.m, s.l, p, body)
	return o
}

// --- SCM --------------------------------------------------------------------

// SCMMode selects the speculative attempt SCM wraps.
type SCMMode int8

// SCM modes.
const (
	// SCMOverHLE keeps HLE semantics and opacity: the main lock is read at
	// transaction start and the attempt aborts if it is held (§6's
	// RTM-based implementation, since Haswell cannot nest HLE in RTM).
	SCMOverHLE SCMMode = iota + 1
	// SCMOverSLR wraps SLR attempts: the lock is checked only at commit.
	SCMOverSLR
)

// SCM is software-assisted conflict management (Figure 7): an aborted
// thread acquires a distinct auxiliary lock non-transactionally and then
// rejoins the speculative execution, so conflicting threads serialize among
// themselves without disturbing non-conflicting speculators. The
// auxiliary-lock holder falls back to the main lock only after MaxRetries
// failed speculative attempts, preserving progress; with a fair auxiliary
// lock the scheme inherits starvation freedom.
//
// With G > 1 auxiliary locks (NewGroupedSCM) it implements the refinement
// the paper leaves as future work (§6 Remark, §8): conflicting threads are
// divided into groups that only serialize among themselves. The group is
// chosen from the abort status' conflict location — the "abort information
// provided by the hardware" §8 identifies — by hashing the conflicting
// cache line onto one of the G locks, so threads that conflicted on
// unrelated data keep speculating in parallel while threads fighting over
// the same line serialize exactly as in plain SCM. Aborts that carry no
// location (spurious, capacity, explicit) map to group 0, and with one
// auxiliary lock every abort does.
type SCM struct {
	m          *htm.Memory
	main       locks.Lock
	aux        []locks.Lock
	mode       SCMMode
	name       string
	MaxRetries int
}

var _ Scheme = (*SCM)(nil)

// NewSCM builds an SCM scheme over the main lock. aux should be a fair lock
// (the paper uses MCS) so the scheme inherits its fairness.
func NewSCM(m *htm.Memory, main, aux locks.Lock, mode SCMMode) *SCM {
	name := SchemeNameHLESCM
	if mode == SCMOverSLR {
		name = SchemeNameSLRSCM
	}
	return &SCM{m: m, main: main, aux: []locks.Lock{aux}, mode: mode, name: name, MaxRetries: DefaultMaxRetries}
}

// NewGroupedSCM builds a grouped-SCM scheme with groups fair MCS auxiliary
// locks over the main lock.
func NewGroupedSCM(m *htm.Memory, main locks.Lock, mode SCMMode, groups, procs int) *SCM {
	aux := make([]locks.Lock, max(groups, 1))
	for i := range aux {
		aux[i] = locks.NewMCS(m, procs)
	}
	name := SchemeNameHLESCMGrouped
	if mode == SCMOverSLR {
		name = SchemeNameSLRSCMGrouped
	}
	return &SCM{m: m, main: main, aux: aux, mode: mode, name: name, MaxRetries: DefaultMaxRetries}
}

// Name implements Scheme.
func (s *SCM) Name() string { return s.name }

// group maps an abort status to the auxiliary lock that serializes its
// conflict community.
func (s *SCM) group(st htm.Status) int {
	if st.Cause != htm.CauseConflict || st.ConflictLine < 0 {
		return 0
	}
	h := uint64(st.ConflictLine) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(s.aux)))
}

// attempt runs one speculative execution under the chosen inner mode.
func (s *SCM) attempt(p *sim.Proc, body func(c htm.Ctx)) htm.Status {
	if s.mode == SCMOverSLR {
		return slrAttempt(s.m, s.main, p, body)
	}
	return s.m.Atomic(p, func(tx *htm.Tx) {
		if s.main.HeldTx(tx) {
			tx.Abort(CodeNonSpecRun)
		}
		body(ctx(s.m, p))
	})
}

// releaseAux releases auxiliary lock g, held since the given clock, and
// adds the held time to o.AuxDwell.
func (s *SCM) releaseAux(p *sim.Proc, g int, since uint64, o *Outcome) {
	s.aux[g].Unlock(p)
	o.AuxDwell += p.Clock() - since
	s.m.TraceAuxUnlock(p)
}

// Critical implements Scheme. The serializing path acquires the auxiliary
// lock of the group the *last* conflict pointed at; if a later abort
// implicates a different group, the thread migrates (releasing the old
// auxiliary lock first, preserving lock ordering and deadlock freedom —
// at most one auxiliary lock is ever held). Dwell counts only held time,
// not the handover gap.
func (s *SCM) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	var o Outcome
	held := -1 // index of the auxiliary lock held, or -1
	var auxStart uint64
	retries := 0
	for {
		if s.mode == SCMOverHLE {
			// An HLE-style attempt is doomed while the main lock is held;
			// don't waste a transaction on it (§7's conflict-management
			// tuning: HLE is highly sensitive to the lock being taken).
			s.main.WaitUntilFree(p)
		}
		o.Attempts++
		st := s.attempt(p, body)
		if st.Committed {
			o.Speculative = true
			break
		}
		o.Aborts++
		o.LastCause = st.Cause
		// Serializing path (Figure 7, lines 17-26): acquire the auxiliary
		// lock on the first failure; count retries while holding it.
		if g := s.group(st); g == held {
			retries++
		} else {
			if held >= 0 {
				// The conflict moved to another community; migrate.
				s.releaseAux(p, held, auxStart, &o)
				retries++
			}
			s.m.TraceAuxWait(p)
			s.aux[g].Lock(p)
			held = g
			auxStart = p.Clock()
			s.m.TraceAuxLock(p)
			o.AuxUsed = true
		}
		// SLR tuning (§7): when the abort status says retrying is unlikely
		// to succeed, switch to the main lock now.
		if retries >= s.MaxRetries || s.mode == SCMOverSLR && !st.Retry {
			o.Attempts++
			locked(s.m, s.main, p, body)
			break
		}
		if s.mode == SCMOverSLR && st.Cause == htm.CauseExplicit && st.Code == CodeSLRLockHeld {
			s.main.WaitUntilFree(p)
		}
	}
	if held >= 0 {
		s.releaseAux(p, held, auxStart, &o)
	}
	return o
}
