package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/harness"
	"elision/internal/hashtable"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/rbtree"
	"elision/internal/sim"
)

// Span kinds recorded on a machine's tape while it runs.
const (
	spanCritical uint8 = iota // core: one Scheme.Critical call
	spanDS                    // rbtree/hashtable: the body's data-structure call
	spanAccess                // htm: one Load/Store through the traced Accessor
	numSpans
)

// mainPid tags the host goroutine that calls Machine.Run.
const mainPid = -1

// event is one span boundary on a tape.
type event struct {
	t    int64 // ns since the tape's epoch
	pid  int32
	kind uint8
	end  bool
}

// tape is one machine's span record. Only one sim goroutine of a machine
// runs at a time and the scheduler's channel handoffs order them, so a tape
// needs no lock; it is kept in memory and folded when the point ends.
type tape struct {
	epoch time.Time
	ev    []event
}

func (tp *tape) now() int64 { return int64(time.Since(tp.epoch)) }

func (tp *tape) mark(pid int, kind uint8, end bool) {
	tp.ev = append(tp.ev, event{t: tp.now(), pid: int32(pid), kind: kind, end: end})
}

// call records a data-structure span around f. The end is deferred so an
// abort unwinding through the structure still closes the span.
func (tp *tape) call(pid int, f func()) {
	tp.mark(pid, spanDS, false)
	defer tp.mark(pid, spanDS, true)
	f()
}

// tracedAccessor wraps the live htm.Ctx and records a span around every
// Load and Store. The structures only see the htm.Accessor interface, so
// the wrapper changes no simulated behaviour.
type tracedAccessor struct {
	c  htm.Ctx
	tp *tape
}

func (a tracedAccessor) Load(addr mem.Addr) int64 {
	pid := a.c.P.ID()
	a.tp.mark(pid, spanAccess, false)
	defer a.tp.mark(pid, spanAccess, true)
	return a.c.Load(addr)
}

func (a tracedAccessor) Store(addr mem.Addr, v int64) {
	pid := a.c.P.ID()
	a.tp.mark(pid, spanAccess, false)
	defer a.tp.mark(pid, spanAccess, true)
	a.c.Store(addr, v)
}

func (a tracedAccessor) Pid() int { return a.c.Pid() }

// ledger accumulates host time per layer over traced points.
type ledger struct {
	points                      int
	pointNs, setupNs, runNs     int64
	machineNs, memoryNs         int64
	structNs, prefillNs, wireNs int64
	// self holds span self time (duration minus child spans and handoffs);
	// dsSelf splits spanDS by structure.
	self      [numSpans]int64
	dsSelf    map[harness.Structure]int64
	dsOps     map[harness.Structure]uint64
	loopNs    int64 // running proc with no span open: the op loop
	handoffNs int64 // consecutive events from different procs
	switches  uint64
	accesses  uint64
	stats     core.Stats
}

func newLedger() *ledger {
	return &ledger{dsSelf: map[harness.Structure]int64{}, dsOps: map[harness.Structure]uint64{}}
}

// merge folds o into l.
func (l *ledger) merge(o *ledger) {
	l.points += o.points
	l.pointNs += o.pointNs
	l.setupNs += o.setupNs
	l.runNs += o.runNs
	l.machineNs += o.machineNs
	l.memoryNs += o.memoryNs
	l.structNs += o.structNs
	l.prefillNs += o.prefillNs
	l.wireNs += o.wireNs
	for i := range l.self {
		l.self[i] += o.self[i]
	}
	for k, v := range o.dsSelf {
		l.dsSelf[k] += v
	}
	for k, v := range o.dsOps {
		l.dsOps[k] += v
	}
	l.loopNs += o.loopNs
	l.handoffNs += o.handoffNs
	l.switches += o.switches
	l.accesses += o.accesses
	l.stats.Merge(o.stats)
}

// fold attributes the interval between consecutive events of one run. An
// interval that ends on a different proc than it started is scheduler
// handoff (sim); otherwise it is self time of the proc's innermost open
// span, or of the op loop when none is open. runBegin and runEnd bracket
// Machine.Run on the host goroutine.
func (l *ledger) fold(ev []event, runBegin, runEnd int64, st harness.Structure) error {
	var stacks [sim.MaxProcs][]uint8
	prev, last := int32(mainPid), runBegin
	for _, e := range ev {
		if e.pid < 0 || int(e.pid) >= sim.MaxProcs {
			return fmt.Errorf("tape: event from proc %d", e.pid)
		}
		dt := e.t - last
		stack := stacks[e.pid]
		switch {
		case e.pid != prev:
			l.handoffNs += dt
			l.switches++
		case len(stack) == 0:
			l.loopNs += dt
		case stack[len(stack)-1] == spanDS:
			l.dsSelf[st] += dt
		default:
			l.self[stack[len(stack)-1]] += dt
		}
		if e.end {
			if len(stack) == 0 || stack[len(stack)-1] != e.kind {
				return fmt.Errorf("tape: proc %d closes span %d out of order", e.pid, e.kind)
			}
			stacks[e.pid] = stack[:len(stack)-1]
		} else {
			stacks[e.pid] = append(stack, e.kind)
			if e.kind == spanAccess {
				l.accesses++
			}
		}
		prev, last = e.pid, e.t
	}
	for pid, s := range stacks {
		if len(s) > 0 {
			return fmt.Errorf("tape: proc %d ended the run with %d open spans", pid, len(s))
		}
	}
	l.handoffNs += runEnd - last
	l.switches++
	return nil
}

// snapKey and snapshot mirror harness.FillCache: a prefill image is a pure
// function of the structure, its geometry and the fill seed.
type snapKey struct {
	st      harness.Structure
	threads int
	size    int
	seed    uint64
}

type snapshot struct {
	words []int64
	brk   mem.Addr
}

type snapCache struct {
	mu sync.Mutex
	m  map[snapKey]*snapshot
}

func (sc *snapCache) get(k snapKey) *snapshot {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.m[k]
}

func (sc *snapCache) put(k snapKey, s *snapshot) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, ok := sc.m[k]; !ok {
		sc.m[k] = s
	}
}

// tracedInstance is the traced mirror of harness.Instance.RunObserved
// (with observability off), built only from the modules' public
// constructors so the benchmark can time each call from outside. One per
// fleet worker; machine and memory are reset between points like the
// pooled instance's.
type tracedInstance struct {
	fills *snapCache
	m     *sim.Machine
	hm    *htm.Memory
	tp    tape
	led   *ledger
}

func newTracedInstance(fills *snapCache, epoch time.Time) *tracedInstance {
	return &tracedInstance{fills: fills, tp: tape{epoch: epoch}, led: newLedger()}
}

// memoryWords and bucketCount mirror the harness's sizing of a point's
// simulated memory and hash geometry; the traced-equals-untraced check
// catches any drift.
func memoryWords(cfg harness.DSConfig) int {
	nodes := 2*cfg.Size + cfg.Threads*64*8 + 4096
	words := nodes * 8
	if cfg.Structure == harness.StructHash {
		words += bucketCount(cfg.Size) * 8
	}
	return words + 1<<16
}

func bucketCount(size int) int {
	b := 64
	for b < size {
		b <<= 1
	}
	return b
}

// dataStructure is the operation surface both benchmark structures share.
type dataStructure interface {
	Insert(ac htm.Accessor, key, val int64) bool
	Delete(ac htm.Accessor, key int64) bool
	Lookup(ac htm.Accessor, key int64) (int64, bool)
}

// run executes one point with spans recorded and folds them into the
// instance's ledger. The workloads set neither DSConfig.ACfg nor
// SlotCycles, so the mirror leaves them out.
func (d *tracedInstance) run(cfg harness.DSConfig) (harness.Result, error) {
	led := d.led
	t0 := time.Now()
	lap := func() int64 {
		t := time.Now()
		ns := t.Sub(t0).Nanoseconds()
		t0 = t
		return ns
	}
	start := t0

	simCfg := sim.Config{Procs: cfg.Threads, Seed: cfg.Seed, Quantum: cfg.Quantum, Cores: cfg.Cores}
	memCfg := htm.Config{Words: memoryWords(cfg), AbortOnDangerousWhileUnsubscribed: cfg.HWFix}
	if d.m == nil {
		m, err := sim.New(simCfg)
		if err != nil {
			return harness.Result{}, err
		}
		d.m = m
	} else if err := d.m.Reset(simCfg); err != nil {
		return harness.Result{}, err
	}
	led.machineNs += lap()
	if d.hm == nil {
		d.hm = htm.NewMemory(d.m, memCfg)
	} else {
		d.hm.Reset(d.m, memCfg)
	}
	m, hm := d.m, d.hm
	hm.SetCollector(nil)
	hm.SetTracer(nil)
	led.memoryNs += lap()

	var ds dataStructure
	if cfg.Structure == harness.StructHash {
		ds = hashtable.New(hm, cfg.Threads, bucketCount(cfg.Size))
	} else {
		ds = rbtree.New(hm, cfg.Threads)
	}
	domain := uint64(2 * cfg.Size)
	if domain == 0 {
		domain = 2
	}
	led.structNs += lap()
	key := snapKey{cfg.Structure, cfg.Threads, cfg.Size, cfg.Seed}
	if snap := d.fills.get(key); snap != nil {
		hm.Store().Restore(snap.words, snap.brk)
	} else {
		raw := htm.Raw{M: hm}
		rng := rand.New(rand.NewSource(int64(cfg.Seed) + 1))
		for n := 0; n < cfg.Size; {
			if ds.Insert(raw, rng.Int63n(int64(domain)), 1) {
				n++
			}
		}
		words, brk := hm.Store().Snapshot()
		d.fills.put(key, &snapshot{words: words, brk: brk})
	}
	led.prefillNs += lap()

	l, err := core.BuildLock(hm, string(cfg.Lock), cfg.Threads)
	if err != nil {
		return harness.Result{}, err
	}
	s, err := core.BuildScheme(hm, string(cfg.Scheme), l, cfg.Threads)
	if err != nil {
		return harness.Result{}, err
	}
	var lockLines []int
	if lr, ok := l.(locks.LineReporter); ok {
		lockLines = lr.LockLines()
	}
	hm.SetSubscriptionLines(lockLines)

	tp := &d.tp
	tp.ev = tp.ev[:0]
	var stats core.Stats
	for i := 0; i < cfg.Threads; i++ {
		m.Go(func(p *sim.Proc) {
			pid := p.ID()
			for p.Clock() < cfg.BudgetCycles {
				r := p.RandN(100)
				key := int64(p.RandN(domain))
				var o core.Outcome
				tp.mark(pid, spanCritical, false)
				switch {
				case int(r) < cfg.Mix.InsertPct:
					o = s.Critical(p, func(c htm.Ctx) { tp.call(pid, func() { ds.Insert(tracedAccessor{c, tp}, key, 1) }) })
				case int(r) < cfg.Mix.InsertPct+cfg.Mix.DeletePct:
					o = s.Critical(p, func(c htm.Ctx) { tp.call(pid, func() { ds.Delete(tracedAccessor{c, tp}, key) }) })
				default:
					o = s.Critical(p, func(c htm.Ctx) { tp.call(pid, func() { ds.Lookup(tracedAccessor{c, tp}, key) }) })
				}
				tp.mark(pid, spanCritical, true)
				stats.Add(o)
			}
		})
	}
	led.wireNs += lap()
	runBegin := tp.now()
	runErr := m.Run()
	runEnd := tp.now()
	led.runNs += lap()
	if runErr != nil {
		return harness.Result{}, fmt.Errorf("traced instance: %v (config %+v)", runErr, cfg)
	}
	var maxClock uint64
	for i := 0; i < cfg.Threads; i++ {
		if c := m.Proc(i).Clock(); c > maxClock {
			maxClock = c
		}
	}
	if err := led.fold(tp.ev, runBegin, runEnd, cfg.Structure); err != nil {
		return harness.Result{}, err
	}
	led.points++
	led.setupNs += runBegin - start.Sub(tp.epoch).Nanoseconds()
	led.pointNs += time.Since(start).Nanoseconds()
	led.dsOps[cfg.Structure] += stats.Ops
	led.stats.Merge(stats)
	return harness.Result{Config: cfg, Stats: stats, Cycles: maxClock, LockLines: lockLines}, nil
}

// tracedPass runs every batch through per-worker traced instances on the
// fleet, batch by batch like the untraced pass, and returns the results in
// input order plus the merged ledger.
func tracedPass(batches [][]harness.DSConfig) ([][]harness.Result, *ledger, error) {
	fills := &snapCache{m: map[snapKey]*snapshot{}}
	epoch := time.Now()
	instances := make([]*tracedInstance, workers)
	for w := range instances {
		instances[w] = newTracedInstance(fills, epoch)
	}
	out := make([][]harness.Result, len(batches))
	for b, cfgs := range batches {
		res := make([]harness.Result, len(cfgs))
		errs := make([]error, len(cfgs))
		fleet.Run(fleet.Config{Workers: workers}, len(cfgs), func(w, i int) {
			res[i], errs[i] = instances[w].run(cfgs[i])
		})
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		out[b] = res
	}
	led := newLedger()
	for _, d := range instances {
		led.merge(d.led)
	}
	return out, led, nil
}
