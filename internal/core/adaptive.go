package core

import (
	"fmt"
	"strconv"
	"strings"

	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/sim"
)

// AbortClass buckets abort causes the way production elision configs do
// (concurrencykit's ck_elide_config): each class carries its own retry
// budget and forfeit window, because the right reaction differs — a
// conflict may resolve on retry, a busy lock resolves when the holder
// leaves, a capacity abort never resolves by retrying.
type AbortClass int8

// Abort classes, in the canonical config-string order.
const (
	// ClassConflict is a data-conflict (coherency) abort.
	ClassConflict AbortClass = iota
	// ClassBusy is a lock-induced abort: the attempt observed (or would have
	// committed against) a held main lock — CodeLockBusy, CodeNonSpecRun and
	// CodeSLRLockHeld explicit aborts.
	ClassBusy
	// ClassCapacity is a read/write-set overflow. Retrying cannot shrink the
	// footprint, so its retry budget is usually 0.
	ClassCapacity
	// ClassOther collects everything else: spurious aborts, interrupt
	// aborts, HLE-restore mismatches and unrecognized explicit codes.
	ClassOther
)

// NumAbortClasses is the number of distinct AbortClass values.
const NumAbortClasses = 4

// ClassNone marks "no class": the zero Outcome of a non-adaptive scheme.
const ClassNone AbortClass = -1

// String implements fmt.Stringer (metric label values).
func (c AbortClass) String() string {
	switch c {
	case ClassConflict:
		return "conflict"
	case ClassBusy:
		return "busy"
	case ClassCapacity:
		return "capacity"
	case ClassOther:
		return "other"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ClassifyAbort maps an abort status to its adaptive policy class.
func ClassifyAbort(st htm.Status) AbortClass {
	switch st.Cause {
	case htm.CauseConflict:
		return ClassConflict
	case htm.CauseCapacity:
		return ClassCapacity
	case htm.CauseExplicit:
		switch st.Code {
		case CodeSLRLockHeld, CodeNonSpecRun, CodeLockBusy:
			return ClassBusy
		}
		return ClassOther
	case htm.CauseDangerous:
		// The lazy-subscription fix's abort. Not ClassBusy: under the fix
		// the abort recurs on every attempt regardless of lock state, so
		// waiting for the holder buys nothing — let the other-class budget
		// (usually small) route the thread to the fallback quickly.
		return ClassOther
	default:
		return ClassOther
	}
}

// AdaptiveConfig parameterizes the adaptive scheme family, mirroring
// ck_elide_config: per-abort-class speculative retry budgets and forfeit
// windows. When one acquisition exhausts the retry budget of the class its
// aborts keep landing in, the thread takes the fallback lock and *forfeits*
// — skips elision entirely, going straight to the lock — for the next
// Forfeit[class] acquisitions.
type AdaptiveConfig struct {
	// Retry[c] is how many extra speculative attempts one acquisition may
	// spend on class-c aborts before giving up (>= 0).
	Retry [NumAbortClasses]int
	// Forfeit[c] is how many subsequent acquisitions skip elision after an
	// acquisition exhausted class c's retry budget (>= 1; a window always
	// covers at least the next acquisition).
	Forfeit [NumAbortClasses]int
}

// DefaultAdaptiveConfig is the ck_elide-inspired default, scaled to the
// simulator (every busy retry burns a whole transaction here, so the busy
// budget is far below ck_elide's 256 spin-loop retries).
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Retry:   [NumAbortClasses]int{5, 16, 0, 3},
		Forfeit: [NumAbortClasses]int{2, 5, 8, 3},
	}
}

// String renders the canonical config string: four retry/forfeit pairs in
// conflict,busy,capacity,other order, e.g. "5/2,16/5,0/8,3/3".
// String and ParseAdaptiveConfig round-trip exactly.
func (c AdaptiveConfig) String() string {
	var b strings.Builder
	for i := 0; i < NumAbortClasses; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d/%d", c.Retry[i], c.Forfeit[i])
	}
	return b.String()
}

// Validate rejects configs outside the scheme's envelope: negative retry
// budgets and zero-length (or negative) forfeit windows.
func (c AdaptiveConfig) Validate() error {
	for i := 0; i < NumAbortClasses; i++ {
		cl := AbortClass(i)
		if c.Retry[i] < 0 {
			return fmt.Errorf("core: adaptive config: %s retry budget must be >= 0, got %d", cl, c.Retry[i])
		}
		if c.Forfeit[i] < 1 {
			return fmt.Errorf("core: adaptive config: %s forfeit window must be >= 1, got %d", cl, c.Forfeit[i])
		}
	}
	return nil
}

// MaxAborts is the largest number of aborts one acquisition can suffer
// before the scheme's fallback guarantees completion: every abort either
// consumes one unit of some class's budget or, finding its class exhausted,
// is the final abort before the lock is taken. This is the bound the
// modelcheck abort-bound oracle holds the family to.
func (c AdaptiveConfig) MaxAborts() int {
	sum := 1
	for _, r := range c.Retry {
		sum += r
	}
	return sum
}

// ParseAdaptiveConfig decodes the canonical "r/f,r/f,r/f,r/f" form
// (conflict,busy,capacity,other) and validates it.
func ParseAdaptiveConfig(s string) (AdaptiveConfig, error) {
	var c AdaptiveConfig
	parts := strings.Split(s, ",")
	if len(parts) != NumAbortClasses {
		return c, fmt.Errorf("core: adaptive config %q: want %d retry/forfeit pairs (conflict,busy,capacity,other), got %d",
			s, NumAbortClasses, len(parts))
	}
	for i, part := range parts {
		r, f, ok := strings.Cut(part, "/")
		if !ok {
			return c, fmt.Errorf("core: adaptive config %q: pair %q is not retry/forfeit", s, part)
		}
		var err error
		if c.Retry[i], err = strconv.Atoi(r); err != nil {
			return c, fmt.Errorf("core: adaptive config %q: bad %s retry %q", s, AbortClass(i), r)
		}
		if c.Forfeit[i], err = strconv.Atoi(f); err != nil {
			return c, fmt.Errorf("core: adaptive config %q: bad %s forfeit %q", s, AbortClass(i), f)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// AdaptiveMode selects the speculative attempt the adaptive policy wraps.
type AdaptiveMode int8

// Adaptive modes.
const (
	// AdaptiveOverHLE keeps HLE semantics and opacity: the elided acquire
	// subscribes to the lock at transaction start, and a busy lock aborts the
	// attempt immediately (CodeLockBusy) instead of spinning in-transaction.
	AdaptiveOverHLE AdaptiveMode = iota + 1
	// AdaptiveOverSLR wraps SLR attempts: the transaction never touches the
	// lock until commit time, where it reads it and self-aborts if held.
	AdaptiveOverSLR
)

// adaptiveThread is one thread's rolling elision state. skip is the
// ck_elide_stat skip counter: the number of upcoming acquisitions that must
// go straight to the fallback lock.
type adaptiveThread struct {
	skip int
}

// Adaptive is the ck_elide-style policy family: a speculative attempt loop
// whose retries are budgeted per abort class and whose fallbacks open
// per-thread forfeit windows, so a thread that keeps losing speculation
// stops paying for it — the production repair for pathologies like the
// lemming effect that fixed-MAX_RETRIES policies walk straight into.
//
// Per-thread state is indexed by proc ID, so one Adaptive serves every proc
// of its machine while each thread adapts independently; all decisions are
// deterministic functions of the abort statuses the simulator hands back.
type Adaptive struct {
	m       *htm.Memory
	l       locks.Elidable
	mode    AdaptiveMode
	cfg     AdaptiveConfig
	threads []adaptiveThread
}

var _ Scheme = (*Adaptive)(nil)

// NewAdaptive builds an adaptive scheme over l for procs threads, with the
// default config. Use SetConfig to install a tuned one.
func NewAdaptive(m *htm.Memory, l locks.Elidable, mode AdaptiveMode, procs int) *Adaptive {
	return &Adaptive{
		m:       m,
		l:       l,
		mode:    mode,
		cfg:     DefaultAdaptiveConfig(),
		threads: make([]adaptiveThread, procs),
	}
}

// Name implements Scheme.
func (s *Adaptive) Name() string {
	if s.mode == AdaptiveOverSLR {
		return SchemeNameAdaptiveSLR
	}
	return SchemeNameAdaptiveHLE
}

// Config returns the active config.
func (s *Adaptive) Config() AdaptiveConfig { return s.cfg }

// SetConfig installs a validated config. Call before the machine runs;
// changing budgets mid-run would make outcomes depend on wall progress.
func (s *Adaptive) SetConfig(cfg AdaptiveConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.cfg = cfg
	return nil
}

// attempt runs one speculative execution under the chosen inner mode. A
// busy lock dooms an HLE-style attempt, so it aborts at once and charges
// the busy budget rather than spin in-transaction.
func (s *Adaptive) attempt(p *sim.Proc, body func(c htm.Ctx)) htm.Status {
	if s.mode == AdaptiveOverHLE {
		return hleAttempt(s.m, s.l, p, body, true)
	}
	return slrAttempt(s.m, s.l, p, body)
}

// Critical implements Scheme: the forfeit-window state machine around a
// per-class-budgeted retry loop.
//
//	skip > 0  ──────────────▶ take the lock, skip--          (forfeited op)
//	skip == 0 ──▶ speculate; abort of class c:
//	                budget[c] left  ──▶ retry (budget[c]--)
//	                budget[c] == 0  ──▶ skip = Forfeit[c], take the lock
func (s *Adaptive) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	o := Outcome{ExhaustedClass: ClassNone}
	t := &s.threads[p.ID()]
	if t.skip > 0 {
		// Inside a forfeit window: elision is disqualified, go straight to
		// the lock (ck_elide's stat->skip fast path).
		t.skip--
		o.Forfeited = true
		o.ForfeitExited = t.skip == 0
		o.Attempts++
		locked(s.m, s.l, p, body)
		return o
	}
	rem := s.cfg.Retry
	for {
		if s.mode == AdaptiveOverHLE {
			// An HLE-style attempt is doomed while the lock is held; wait it
			// out rather than burn budget on a guaranteed busy abort.
			s.l.WaitUntilFree(p)
		}
		o.Attempts++
		st := s.attempt(p, body)
		if st.Committed {
			o.Speculative = true
			return o
		}
		o.Aborts++
		o.LastCause = st.Cause
		cl := ClassifyAbort(st)
		if rem[cl] > 0 {
			rem[cl]--
			if s.mode == AdaptiveOverSLR && cl == ClassBusy {
				// A non-speculative holder dooms the commit-time check; wait
				// for it to leave before spending the next busy retry.
				s.l.WaitUntilFree(p)
			}
			continue
		}
		// This class's budget is exhausted: open its forfeit window and
		// complete under the lock.
		t.skip = s.cfg.Forfeit[cl]
		o.ForfeitEntered = true
		o.ExhaustedClass = cl
		o.Attempts++
		locked(s.m, s.l, p, body)
		return o
	}
}
