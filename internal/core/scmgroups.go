package core

import (
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/sim"
)

// GroupedSCM implements the refinement the paper leaves as future work
// (§6 Remark, §8): instead of funnelling every conflicting thread through
// one auxiliary lock, conflicting threads are divided into groups that only
// serialize among themselves. The group is chosen from the abort status'
// conflict location — the "abort information provided by the hardware" §8
// identifies — by hashing the conflicting cache line onto one of G
// auxiliary locks. Threads that conflicted on unrelated data therefore take
// different auxiliary locks and keep speculating in parallel; threads
// fighting over the same line serialize exactly as in plain SCM.
//
// Aborts that carry no location (spurious, capacity, explicit) fall back to
// group 0. Starvation freedom is inherited from the (fair) auxiliary locks
// just as in SCM: the holder of any auxiliary lock escalates to the main
// lock after MaxRetries failed speculative attempts.
type GroupedSCM struct {
	m          *htm.Memory
	main       locks.Lock
	aux        []locks.Lock
	mode       SCMMode
	MaxRetries int
}

var _ Scheme = (*GroupedSCM)(nil)

// NewGroupedSCM builds a grouped-SCM scheme with groups fair MCS auxiliary
// locks over the main lock.
func NewGroupedSCM(m *htm.Memory, main locks.Lock, mode SCMMode, groups, procs int) *GroupedSCM {
	if groups < 1 {
		groups = 1
	}
	aux := make([]locks.Lock, groups)
	for i := range aux {
		aux[i] = locks.NewMCS(m, procs)
	}
	return &GroupedSCM{m: m, main: main, aux: aux, mode: mode, MaxRetries: DefaultMaxRetries}
}

// Name implements Scheme.
func (s *GroupedSCM) Name() string {
	if s.mode == SCMOverSLR {
		return SchemeNameSLRSCMGrouped
	}
	return SchemeNameHLESCMGrouped
}

// group maps an abort status to the auxiliary lock that serializes its
// conflict community.
func (s *GroupedSCM) group(st htm.Status) int {
	if st.Cause != htm.CauseConflict || st.ConflictLine < 0 {
		return 0
	}
	h := uint64(st.ConflictLine) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(s.aux)))
}

// attempt runs one speculative execution under the chosen inner mode
// (identical to SCM's).
func (s *GroupedSCM) attempt(p *sim.Proc, body func(c htm.Ctx)) htm.Status {
	return s.m.Atomic(p, func(tx *htm.Tx) {
		if s.mode == SCMOverHLE {
			if s.main.HeldTx(tx) {
				tx.Abort(CodeNonSpecRun)
			}
			body(ctx(s.m, p))
			return
		}
		body(ctx(s.m, p))
		if s.main.HeldTx(tx) {
			tx.Abort(CodeSLRLockHeld)
		}
	})
}

// Critical implements Scheme. The serializing path acquires the auxiliary
// lock of the group the *last* conflict pointed at; if a later abort
// implicates a different group, the thread migrates (releasing the old
// auxiliary lock first, preserving lock ordering and deadlock freedom —
// at most one auxiliary lock is ever held).
func (s *GroupedSCM) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	var o Outcome
	heldAux := -1
	var auxStart uint64
	retries := 0
	for {
		if s.mode == SCMOverHLE {
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
		g := s.group(st)
		switch {
		case heldAux == -1:
			s.m.TraceAuxWait(p)
			s.aux[g].Lock(p)
			heldAux = g
			auxStart = p.Clock()
			s.m.TraceAuxLock(p)
			o.AuxUsed = true
		case heldAux != g:
			// The conflict moved to another community; migrate. The dwell
			// accounting excludes the handover gap: only held time counts.
			s.aux[heldAux].Unlock(p)
			o.AuxDwell += p.Clock() - auxStart
			s.m.TraceAuxUnlock(p)
			s.m.TraceAuxWait(p)
			s.aux[g].Lock(p)
			heldAux = g
			auxStart = p.Clock()
			s.m.TraceAuxLock(p)
			retries++
		default:
			retries++
		}
		if retries >= s.MaxRetries {
			o.Attempts++
			s.m.TraceLockWait(p)
			s.main.Lock(p)
			s.m.TraceLock(p)
			body(ctx(s.m, p))
			s.main.Unlock(p)
			s.m.TraceUnlock(p)
			break
		}
		if s.mode == SCMOverSLR {
			if !st.Retry {
				o.Attempts++
				s.m.TraceLockWait(p)
				s.main.Lock(p)
				s.m.TraceLock(p)
				body(ctx(s.m, p))
				s.main.Unlock(p)
				s.m.TraceUnlock(p)
				break
			}
			if st.Cause == htm.CauseExplicit && st.Code == CodeSLRLockHeld {
				s.main.WaitUntilFree(p)
			}
		}
	}
	if heldAux >= 0 {
		s.aux[heldAux].Unlock(p)
		o.AuxDwell += p.Clock() - auxStart
		s.m.TraceAuxUnlock(p)
	}
	return o
}
