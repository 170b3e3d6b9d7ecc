package obs

import (
	"fmt"
	"io"
)

// Metric names fed by the instrumented layers. Counters and histograms
// carry the collector's base labels (scheme, lock) plus the extra
// dimensions noted here.
const (
	// MetricCommits counts transactional commits (htm).
	MetricCommits = "htm_commits_total"
	// MetricAborts counts transactional aborts; extra label cause=<cause>.
	MetricAborts = "htm_aborts_total"
	// MetricReadSet / MetricWriteSet are set-size histograms in cache
	// lines; extra label at=commit|abort.
	MetricReadSet  = "htm_readset_lines"
	MetricWriteSet = "htm_writeset_lines"
	// MetricOps counts completed critical sections; extra label
	// path=spec|nonspec.
	MetricOps = "cs_ops_total"
	// MetricLatency is the critical-section latency histogram in cycles;
	// extra label path=spec|nonspec.
	MetricLatency = "cs_latency_cycles"
	// MetricRetries is the histogram of extra attempts per completed op
	// (attempts beyond the first).
	MetricRetries = "cs_retries_per_op"
	// MetricAuxEntries counts SCM serializing-path entries.
	MetricAuxEntries = "cs_aux_entries_total"
	// MetricAuxDwell is the histogram of cycles spent holding an SCM
	// auxiliary lock.
	MetricAuxDwell = "cs_aux_dwell_cycles"
	// MetricForfeitOps counts operations an adaptive scheme completed inside
	// a forfeit window (elision skipped, straight to the lock).
	MetricForfeitOps = "adaptive_forfeit_ops_total"
	// MetricForfeitEntries / MetricForfeitExits count adaptive forfeit
	// windows opened (a retry budget exhausted) and closed.
	MetricForfeitEntries = "adaptive_forfeit_entries_total"
	MetricForfeitExits   = "adaptive_forfeit_exits_total"
	// MetricBudgetExhausted counts adaptive retry-budget exhaustions; extra
	// label class=conflict|busy|capacity|other.
	MetricBudgetExhausted = "adaptive_budget_exhausted_total"
)

// AbortEvent is the full payload of one transactional abort as the htm
// layer reports it — the raw material for abort-causality analysis. It
// extends the counted fields with the victim's identity and, for conflict
// aborts, when/where/by-whom the dooming access happened.
type AbortEvent struct {
	// When is the victim's virtual time at the abort (XABORT retirement).
	When uint64
	// Tid is the victim: the proc whose transaction aborted.
	Tid int
	// Cause is the abort cause (htm.Cause.String()).
	Cause string
	// ReadLines / WriteLines are the set sizes reached before the abort.
	ReadLines, WriteLines int
	// ConflictLine is the cache line the dooming conflict happened on, or
	// -1 when the abort carries no location.
	ConflictLine int
	// ConflictTid is the aborter: the proc whose access doomed the victim,
	// or -1 when unknown.
	ConflictTid int
	// ConflictNT is true when the dooming access was non-transactional — a
	// real lock acquisition or a lock holder's plain accesses, the roots of
	// fallback-induced cascades.
	ConflictNT bool
	// ConflictWhen is the aborter's virtual time at the dooming access
	// (before When: the victim observes the doom at its next step).
	ConflictWhen uint64
	// Code is the XABORT payload of an explicit abort (core's
	// CodeSLRLockHeld/CodeNonSpecRun/CodeLockBusy), 0 otherwise — the datum
	// that lets observers classify lock-induced aborts the way the adaptive
	// policy does.
	Code int
}

// LockEvent is one non-speculative lock transition reported by the
// instrumented schemes.
type LockEvent struct {
	// When is the holder's virtual time at the transition.
	When uint64
	// Tid is the acquiring/releasing proc.
	Tid int
	// Aux marks an SCM auxiliary-lock transition (false = the main lock).
	Aux bool
	// Release marks the release side of the pair.
	Release bool
	// Wait marks the start of a blocking acquisition: the proc is about to
	// call Lock and When is when it began waiting (the matching non-Wait
	// event arrives once the lock is held). Observers tracking lock
	// *ownership* must ignore Wait events.
	Wait bool
}

// Kind classifies one event of the feed. The flight recorder and the
// swimlane Tracer both record events by kind.
type Kind uint8

// Event kinds, in the order the feed produces them within an attempt.
const (
	// KindTxBegin marks a speculative attempt's start.
	KindTxBegin Kind = iota + 1
	// KindCommit marks a speculative attempt's commit.
	KindCommit
	// KindAbort marks a speculative attempt's abort.
	KindAbort
	// KindLockWait / KindLockAcquire / KindLockRelease are the fallback
	// main-lock phases: wait begins, lock held, lock released.
	KindLockWait
	KindLockAcquire
	KindLockRelease
	// KindAuxWait / KindAuxAcquire / KindAuxRelease are the SCM
	// auxiliary-lock phases.
	KindAuxWait
	KindAuxAcquire
	KindAuxRelease
)

// String implements fmt.Stringer (the flight recorder's chronicle prints
// these names).
func (k Kind) String() string {
	switch k {
	case KindTxBegin:
		return "tx-begin"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindLockWait:
		return "lock-wait"
	case KindLockAcquire:
		return "lock-acquire"
	case KindLockRelease:
		return "lock-release"
	case KindAuxWait:
		return "aux-wait"
	case KindAuxAcquire:
		return "aux-acquire"
	case KindAuxRelease:
		return "aux-release"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kind classifies the transition: a wait, acquire or release of the main
// or the auxiliary lock.
func (ev LockEvent) Kind() Kind {
	switch {
	case ev.Wait && ev.Aux:
		return KindAuxWait
	case ev.Wait:
		return KindLockWait
	case ev.Aux && ev.Release:
		return KindAuxRelease
	case ev.Aux:
		return KindAuxAcquire
	case ev.Release:
		return KindLockRelease
	default:
		return KindLockAcquire
	}
}

// TxObserver receives the collector's raw per-event feed — the hook the
// abort-causality engine (obs/causality) attaches to. Calls follow the
// simulator's single-runner invariant: they arrive serialized and in
// near-monotone virtual-time order (within one scheduler quantum).
type TxObserver interface {
	// ObserveCommit is called for every transactional commit.
	ObserveCommit(when uint64, tid int)
	// ObserveAbort is called for every transactional abort.
	ObserveAbort(ev AbortEvent)
	// ObserveLock is called for every non-speculative lock transition.
	ObserveLock(ev LockEvent)
	// ObserveOp is called for every completed critical section.
	ObserveOp(when uint64, tid int, spec, auxUsed bool)
	// ObserveLockLines tells the observer which cache lines belong to the
	// run's lock protocol (called before the run starts, when known).
	ObserveLockLines(lines []int)
	// ObserveFinish marks the end of the run at the given covered cycles;
	// the observer finalizes any open analysis state.
	ObserveFinish(totalCycles uint64)
}

// TextReporter is implemented by observers that can append a human-readable
// report to the collector's text dump (e.g. the causality scorecard).
type TextReporter interface {
	WriteText(w io.Writer)
}

// OpEvent is the full payload of one completed critical section — the
// sealing record of an attempt chain. It carries every Outcome facet the
// scheme reported plus the chain's start time, so an observer can account
// the section's whole retry history without tracking scheme internals.
type OpEvent struct {
	// Start is the proc's virtual time entering Critical (the chain's first
	// cycle); When is the time the section completed (the chain's last).
	Start, When uint64
	// Tid is the executing proc.
	Tid int
	// Spec is true when the section committed speculatively.
	Spec bool
	// Attempts counts executions of the body (speculative and not); Aborts
	// counts the failed speculative ones.
	Attempts, Aborts int
	// AuxUsed / AuxDwell describe the SCM serializing path: whether it was
	// entered and for how many cycles auxiliary locks were held.
	AuxUsed  bool
	AuxDwell uint64
	// Forfeited / ForfeitEntered / ForfeitExited are the adaptive-policy
	// facets: ran inside a forfeit window / opened one / closed one.
	Forfeited, ForfeitEntered, ForfeitExited bool
	// ExhaustedClass names the abort class whose budget ran out ("" unless
	// ForfeitEntered).
	ExhaustedClass string
}

// AttemptObserver is an optional extension of TxObserver for observers that
// need attempt-start events (the flight recorder): ObserveTxBegin is called
// when a transactional attempt begins, before any of its commits or aborts.
type AttemptObserver interface {
	ObserveTxBegin(when uint64, tid int)
}

// OpDetailObserver is an optional extension of TxObserver: ObserveOpDetail
// is called after ObserveOp with the section's full payload, sealing the
// attempt chain the preceding events belong to.
type OpDetailObserver interface {
	ObserveOpDetail(ev OpEvent)
}

// Collector bundles the observability sinks one instrumented run feeds: the
// registry, the conflict hot-line profiler and the windowed time series.
// A nil *Collector is a valid no-op sink, so the htm and core hot paths pay
// a single nil check when observability is off.
type Collector struct {
	// Reg is the metrics registry.
	Reg *Registry
	// Hot is the conflict hot-line profiler.
	Hot *HotLines
	// Series is the windowed time series.
	Series *Series
	// base carries the run's identity labels (scheme, lock).
	base Labels
	// obsv, when non-nil, receives the raw event feed.
	obsv TxObserver
	// attObsv / opObsv cache the observer's optional extensions, resolved
	// once at SetObserver so the hot path pays a nil check, not a type
	// assertion.
	attObsv AttemptObserver
	opObsv  OpDetailObserver
	// lockLines is retained so an observer attached late still learns them.
	lockLines []int

	// Pre-resolved handles for the per-transaction hot path.
	commits       *Counter
	readAtCommit  *Histogram
	writeAtCommit *Histogram
	readAtAbort   *Histogram
	writeAtAbort  *Histogram
	opsSpec       *Counter
	opsNonSpec    *Counter
	latSpec       *Histogram
	latNonSpec    *Histogram
	retries       *Histogram
	auxEntries    *Counter
	auxDwell      *Histogram
}

// NewCollector builds a collector labelled with the run's scheme and lock,
// recording time series in windows of windowCycles (0 selects the default).
func NewCollector(scheme, lock string, windowCycles uint64) *Collector {
	base := Labels{}
	if scheme != "" {
		base = base.With("scheme", scheme)
	}
	if lock != "" {
		base = base.With("lock", lock)
	}
	reg := NewRegistry()
	return &Collector{
		Reg:    reg,
		Hot:    NewHotLines(),
		Series: NewSeries(windowCycles),
		base:   base,

		commits:       reg.Counter(MetricCommits, base),
		readAtCommit:  reg.Histogram(MetricReadSet, base.With("at", "commit")),
		writeAtCommit: reg.Histogram(MetricWriteSet, base.With("at", "commit")),
		readAtAbort:   reg.Histogram(MetricReadSet, base.With("at", "abort")),
		writeAtAbort:  reg.Histogram(MetricWriteSet, base.With("at", "abort")),
		opsSpec:       reg.Counter(MetricOps, base.With("path", "spec")),
		opsNonSpec:    reg.Counter(MetricOps, base.With("path", "nonspec")),
		latSpec:       reg.Histogram(MetricLatency, base.With("path", "spec")),
		latNonSpec:    reg.Histogram(MetricLatency, base.With("path", "nonspec")),
		retries:       reg.Histogram(MetricRetries, base),
		auxEntries:    reg.Counter(MetricAuxEntries, base),
		auxDwell:      reg.Histogram(MetricAuxDwell, base),
	}
}

// BaseLabels returns the collector's identity labels (scheme, lock).
func (c *Collector) BaseLabels() Labels {
	if c == nil {
		return nil
	}
	return c.base
}

// SetObserver attaches a raw-event observer (nil detaches), replacing any
// previous one. If the run's lock lines are already known they are replayed
// to the new observer.
func (c *Collector) SetObserver(o TxObserver) {
	if c == nil {
		return
	}
	c.obsv = o
	c.attObsv, _ = o.(AttemptObserver)
	c.opObsv, _ = o.(OpDetailObserver)
	if o != nil && c.lockLines != nil {
		o.ObserveLockLines(c.lockLines)
	}
}

// AddObserver attaches o alongside any existing observer: the first
// attachment behaves like SetObserver, later ones fan the feed out through a
// Tee — so the causality engine and the flight recorder can share one
// collector. Nil receivers and observers are no-ops.
func (c *Collector) AddObserver(o TxObserver) {
	if c == nil || o == nil {
		return
	}
	switch cur := c.obsv.(type) {
	case nil:
		c.SetObserver(o)
	case Tee:
		c.SetObserver(append(cur, o))
	default:
		c.SetObserver(Tee{cur, o})
	}
}

// Observer returns the attached observer, possibly nil.
func (c *Collector) Observer() TxObserver {
	if c == nil {
		return nil
	}
	return c.obsv
}

// SetLockLines records the cache lines the run's lock protocol occupies and
// forwards them to the observer. Safe on a nil receiver.
func (c *Collector) SetLockLines(lines []int) {
	if c == nil {
		return
	}
	c.lockLines = lines
	if c.obsv != nil {
		c.obsv.ObserveLockLines(lines)
	}
}

// TxBegin records proc tid starting a transactional attempt at virtual time
// when (XBEGIN retirement). Only AttemptObserver extensions see it; the
// counted feed is unchanged. Safe on a nil receiver.
func (c *Collector) TxBegin(when uint64, tid int) {
	if c == nil || c.attObsv == nil {
		return
	}
	c.attObsv.ObserveTxBegin(when, tid)
}

// TxCommit records proc tid's transactional commit at virtual time when,
// with the committed read/write-set sizes in cache lines. Safe on a nil
// receiver.
func (c *Collector) TxCommit(when uint64, tid, readLines, writeLines int) {
	if c == nil {
		return
	}
	c.commits.Inc()
	c.readAtCommit.Observe(uint64(readLines))
	c.writeAtCommit.Observe(uint64(writeLines))
	c.Series.RecordCommit(when)
	if c.obsv != nil {
		c.obsv.ObserveCommit(when, tid)
	}
}

// TxAbort records one transactional abort: the cause, the set sizes reached
// before the abort, and — for conflict aborts — where, when and by whom the
// dooming access happened (negative ids when unknown). Safe on a nil
// receiver.
func (c *Collector) TxAbort(ev AbortEvent) {
	if c == nil {
		return
	}
	c.Reg.Counter(MetricAborts, c.base.With("cause", ev.Cause)).Inc()
	c.readAtAbort.Observe(uint64(ev.ReadLines))
	c.writeAtAbort.Observe(uint64(ev.WriteLines))
	c.Hot.Record(ev.ConflictLine, ev.ConflictTid)
	c.Series.RecordAbort(ev.When)
	if c.obsv != nil {
		c.obsv.ObserveAbort(ev)
	}
}

// LockWaiting records proc tid starting a blocking main-lock acquisition
// (the wait begins; LockAcquired follows once the lock is held). Safe on a
// nil receiver.
func (c *Collector) LockWaiting(when uint64, tid int) {
	if c == nil || c.obsv == nil {
		return
	}
	c.obsv.ObserveLock(LockEvent{When: when, Tid: tid, Wait: true})
}

// AuxWaiting records proc tid starting a blocking auxiliary-lock
// acquisition. Safe on a nil receiver.
func (c *Collector) AuxWaiting(when uint64, tid int) {
	if c == nil || c.obsv == nil {
		return
	}
	c.obsv.ObserveLock(LockEvent{When: when, Tid: tid, Aux: true, Wait: true})
}

// LockAcquired records proc tid's non-speculative main-lock acquisition.
// Safe on a nil receiver.
func (c *Collector) LockAcquired(when uint64, tid int) {
	if c == nil || c.obsv == nil {
		return
	}
	c.obsv.ObserveLock(LockEvent{When: when, Tid: tid})
}

// LockReleased records the matching main-lock release. Safe on a nil
// receiver.
func (c *Collector) LockReleased(when uint64, tid int) {
	if c == nil || c.obsv == nil {
		return
	}
	c.obsv.ObserveLock(LockEvent{When: when, Tid: tid, Release: true})
}

// AuxAcquired records proc tid entering an SCM serializing path (auxiliary
// lock acquired). Safe on a nil receiver.
func (c *Collector) AuxAcquired(when uint64, tid int) {
	if c == nil || c.obsv == nil {
		return
	}
	c.obsv.ObserveLock(LockEvent{When: when, Tid: tid, Aux: true})
}

// AuxReleased records the matching auxiliary-lock release. Safe on a nil
// receiver.
func (c *Collector) AuxReleased(when uint64, tid int) {
	if c == nil || c.obsv == nil {
		return
	}
	c.obsv.ObserveLock(LockEvent{When: when, Tid: tid, Aux: true, Release: true})
}

// Op records proc tid's completed critical section finishing at virtual
// time when: whether it committed speculatively, its start-to-finish
// latency, its retry count (attempts beyond the first), and — for SCM
// schemes — whether it entered the serializing path and for how many cycles
// it held the auxiliary lock. Safe on a nil receiver.
func (c *Collector) Op(when uint64, tid int, spec bool, latency uint64, retries int, auxUsed bool, auxDwell uint64) {
	if c == nil {
		return
	}
	if spec {
		c.opsSpec.Inc()
		c.latSpec.Observe(latency)
	} else {
		c.opsNonSpec.Inc()
		c.latNonSpec.Observe(latency)
	}
	if retries < 0 {
		retries = 0
	}
	c.retries.Observe(uint64(retries))
	if auxUsed {
		c.auxEntries.Inc()
		c.auxDwell.Observe(auxDwell)
	}
	c.Series.RecordOp(when, spec)
	if c.obsv != nil {
		c.obsv.ObserveOp(when, tid, spec, auxUsed)
	}
}

// OpDetail seals one completed critical section's attempt chain with its
// full payload. Only OpDetailObserver extensions see it; the counted feed
// already got the section through Op. Safe on a nil receiver.
func (c *Collector) OpDetail(ev OpEvent) {
	if c == nil || c.opObsv == nil {
		return
	}
	c.opObsv.ObserveOpDetail(ev)
}

// AdaptiveOp records the adaptive-policy facets of one completed critical
// section: whether it ran forfeited (elision skipped inside a window), and
// whether it opened (exhausting the named abort class's retry budget) or
// closed a forfeit window. Counters are registered lazily, so non-adaptive
// runs carry no adaptive_* families. Safe on a nil receiver.
func (c *Collector) AdaptiveOp(forfeited, entered, exited bool, class string) {
	if c == nil {
		return
	}
	if forfeited {
		c.Reg.Counter(MetricForfeitOps, c.base).Inc()
	}
	if entered {
		c.Reg.Counter(MetricForfeitEntries, c.base).Inc()
		c.Reg.Counter(MetricBudgetExhausted, c.base.With("class", class)).Inc()
	}
	if exited {
		c.Reg.Counter(MetricForfeitExits, c.base).Inc()
	}
}

// Finish marks the end of the run at the given covered cycles, letting the
// observer finalize (close open epochs, pin totals). Safe on a nil receiver.
func (c *Collector) Finish(totalCycles uint64) {
	if c == nil || c.obsv == nil {
		return
	}
	c.obsv.ObserveFinish(totalCycles)
}

// SetGauge sets a run-level gauge (e.g. cycles covered, thread count) with
// the collector's base labels. Safe on a nil receiver.
func (c *Collector) SetGauge(name string, v int64) {
	if c == nil {
		return
	}
	c.Reg.Gauge(name, c.base).Set(v)
}

// WriteText dumps the registry, the hot-line table (top hotN; 0 keeps the
// default of 16), the time series and — when the attached observer can
// report — its appended report (e.g. the causality scorecard), as one
// human-readable report. annotate, when non-nil, labels known cache lines
// in the hot-line table.
func (c *Collector) WriteText(w io.Writer, hotN int, annotate func(line int) string) {
	if c == nil {
		return
	}
	if hotN <= 0 {
		hotN = 16
	}
	c.Reg.WriteText(w)
	c.Hot.WriteText(w, hotN, annotate)
	c.Series.WriteText(w)
	if tr, ok := c.obsv.(TextReporter); ok {
		tr.WriteText(w)
	}
}

// WriteCSV dumps the registry and the time series in CSV form (two tables
// separated by a blank line). Observer-registered metrics (causality epochs
// and depth/duration histograms) appear in the registry table.
func (c *Collector) WriteCSV(w io.Writer) {
	if c == nil {
		return
	}
	c.Reg.WriteCSV(w)
	io.WriteString(w, "\n")
	c.Series.WriteCSV(w)
}
