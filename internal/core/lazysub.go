package core

import (
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/sim"
)

// LazySub is the DELIBERATELY UNSAFE lazy-subscription scheme: the adversary
// from Dice/Harris/Kogan/Lev/Moir (arXiv 1407.6968) that the modelcheck
// expected-fail campaign exists to break.
//
// Shape-wise it is SLR (Figure 5): run the body transactionally, check the
// lock at the end, fall back to the lock after MaxRetries. The load-bearing
// difference is HOW the commit-time check reads the lock. SLR's HeldTx is a
// transactional load — it subscribes: the lock's line enters the read set,
// so a fallback thread acquiring the lock between the check and the commit
// dooms the transaction and the commit's own doomed-check kills it. LazySub
// peeks at the lock through a non-transactional escape (Tx.Escaped), which
// reads committed memory but records nothing in the conflict footprint. The
// check itself still works — a held lock aborts the attempt — but nothing
// protects the window between a successful check and the commit: a thread
// that acquires the lock inside that window cannot doom us, and the
// transaction commits into the middle of a live critical section.
//
// Two concrete failure modes follow, both surfaced by modelcheck oracles:
//
//   - commit-safety: the transaction commits while a fallback thread holds
//     the lock (the stream oracle sees the commit between TraceLock and
//     TraceUnlock);
//   - serializability/final-state: the transaction's reads span a fallback
//     section (reads before the holder's writes doomed nothing because the
//     holder had not written yet; the holder then completes and releases;
//     the escape peek sees "free" and the tx commits values computed from a
//     state no serial order explains).
//
// With htm.Config.AbortOnDangerousWhileUnsubscribed the hardware repairs
// the scheme wholesale: the escape peek is a dangerous action while
// unsubscribed, so every speculative attempt aborts with CauseDangerous
// (retry hint clear) and the section completes under the lock — slower,
// but never wrong.
type LazySub struct {
	m          *htm.Memory
	l          locks.Lock
	MaxRetries int
}

var _ Scheme = (*LazySub)(nil)

// NewLazySub returns the unsafe lazy-subscription scheme over any lock.
func NewLazySub(m *htm.Memory, l locks.Lock) *LazySub {
	return &LazySub{m: m, l: l, MaxRetries: DefaultMaxRetries}
}

// Name implements Scheme.
func (s *LazySub) Name() string { return SchemeNameLazySub }

// Critical implements Scheme.
func (s *LazySub) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	var o Outcome
	for tries := 0; tries < s.MaxRetries; tries++ {
		o.Attempts++
		st := s.m.Atomic(p, func(tx *htm.Tx) {
			body(ctx(s.m, p))
			// The lazy "subscription": an escaped peek at the lock. Unlike
			// SLR's transactional HeldTx, the lock line does NOT enter the
			// read set, so a fallback acquisition after this point no longer
			// dooms the transaction. htm.Tx.Escaped documents why hardware
			// with the dangerous-action fix refuses to run this.
			held := true
			tx.Escaped(func() { held = s.l.HeldTx(tx) })
			if held {
				tx.Abort(CodeLockBusy)
			}
		})
		if st.Committed {
			o.Speculative = true
			return o
		}
		o.Aborts++
		o.LastCause = st.Cause
		if !st.Retry {
			break // capacity, or CauseDangerous under the hardware fix
		}
		if st.Cause == htm.CauseExplicit && st.Code == CodeLockBusy {
			// The peek saw a non-speculative holder; wait for it to leave
			// rather than burn attempts that must fail the check.
			s.l.WaitUntilFree(p)
		}
	}
	o.Attempts++
	locked(s.m, s.l, p, body)
	return o
}
