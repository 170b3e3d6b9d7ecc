package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"elision/internal/core"
	"elision/internal/hashtable"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/obs"
	"elision/internal/rbtree"
	"elision/internal/sim"
)

// fillKey identifies one deterministic initial fill: the filled memory
// image is a pure function of the structure, its geometry (which also fixes
// the simulated-memory layout through the per-proc allocator arenas) and
// the fill seed. Every DSConfig sharing a key shares the image — scheme,
// lock, mix, budget and scheduler parameters all apply after the fill.
type fillKey struct {
	structure Structure
	threads   int
	size      int
	seed      uint64
}

// fillImage is one captured prefill: the allocated prefix of simulated
// memory right after the initial fill, before any lock or scheme state is
// allocated. Immutable once published.
type fillImage struct {
	words []int64
	brk   mem.Addr
}

// FillCache shares prefill snapshots between pooled instances: the first
// point of a fill-key pays the O(Size) insert replay and captures the
// image; every later point restores it with a copy. Fills are single-flight
// per key: a point that claims a key while another worker is filling it
// waits for that image instead of replaying the fill itself, so a campaign
// counts exactly one miss per key and one hit per further point at any -j.
// Safe for concurrent use by fleet workers.
type FillCache struct {
	mu    sync.Mutex
	snaps map[fillKey]*fillEntry
	hits  atomic.Uint64
	miss  atomic.Uint64
}

// fillEntry is one key's slot: ready closes once the filling worker has
// set img, or has withdrawn the entry (img stays nil) because its fill
// panicked.
type fillEntry struct {
	ready chan struct{}
	img   *fillImage
}

// NewFillCache returns an empty prefill-snapshot cache.
func NewFillCache() *FillCache {
	return &FillCache{snaps: make(map[fillKey]*fillEntry)}
}

// Stats reports how many prefetches were served from a snapshot (hits) vs
// paid in full (misses): the prefill-restore hit rate.
func (fc *FillCache) Stats() (hits, misses uint64) {
	return fc.hits.Load(), fc.miss.Load()
}

// claim returns key's entry, creating it when absent; the creator owns
// it, must fill it and then call finish, while everyone else waits on ready.
func (fc *FillCache) claim(key fillKey) (e *fillEntry, owner bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if e = fc.snaps[key]; e == nil {
		e = &fillEntry{ready: make(chan struct{})}
		fc.snaps[key] = e
		owner = true
	}
	return e, owner
}

// finish publishes the owner's image and wakes the waiters. A nil img
// withdraws the entry, so the next claimant of key fills it afresh.
func (fc *FillCache) finish(key fillKey, e *fillEntry, img *fillImage) {
	if img == nil {
		fc.mu.Lock()
		delete(fc.snaps, key)
		fc.mu.Unlock()
	}
	e.img = img
	close(e.ready)
}

// Instance is a poolable simulator: one sim.Machine plus one htm.Memory,
// reset between benchmark points instead of rebuilt, with initial fills
// restored from the shared FillCache instead of replayed. A fleet worker
// owns one Instance for the life of a campaign. Results are bit-for-bit
// those of a fresh build — asserted by the golden seed-digest tests and
// TestInstanceReuseMatchesFresh.
//
// An Instance is not safe for concurrent use; each worker needs its own.
type Instance struct {
	// hw is the pooled machine and memory; its build and reset counts are
	// the instance's pooling efficiency, surfaced by Runner.Metrics.
	hw    htm.Pair
	fills *FillCache // nil disables snapshot sharing
}

// NewInstance returns an empty instance drawing prefill snapshots from
// fills (nil disables sharing; every point then pays a cold fill).
func NewInstance(fills *FillCache) *Instance {
	return &Instance{fills: fills}
}

// Run executes one benchmark point on the pooled simulator.
func (in *Instance) Run(cfg DSConfig) Result {
	return in.RunObserved(cfg, nil)
}

// Counts reports how many points built the machine from scratch vs reused
// it via reset — the instance's pooling efficiency. Call only between runs
// (an Instance is single-owner).
func (in *Instance) Counts() (builds, resets uint64) {
	return in.hw.Builds, in.hw.Resets
}

// buildStructure constructs the benchmark container. Allocation order is
// deterministic, so rebuilding on a reset store recreates the exact
// addresses a prefill snapshot was captured with.
func buildStructure(hm *htm.Memory, cfg DSConfig) dataStructure {
	switch cfg.Structure {
	case StructHash:
		return hashtable.New(hm, cfg.Threads, bucketCount(cfg.Size))
	default:
		return rbtree.New(hm, cfg.Threads)
	}
}

// prefill brings the structure to its steady-state Size: from a snapshot
// copy when the FillCache holds (or another worker is filling) this
// fill-key, otherwise by a cold fill whose image it captures for the next
// point.
func (in *Instance) prefill(cfg DSConfig, ds dataStructure, domain uint64) {
	hm := in.hw.Memory
	if in.fills == nil {
		coldFill(hm, cfg, ds, domain)
		return
	}
	key := fillKey{cfg.Structure, cfg.Threads, cfg.Size, cfg.Seed}
	for {
		e, owner := in.fills.claim(key)
		if owner {
			var img *fillImage
			// Release the entry even if the fill panics, so waiters wake.
			defer func() { in.fills.finish(key, e, img) }()
			coldFill(hm, cfg, ds, domain)
			words, brk := hm.Store().Snapshot()
			img = &fillImage{words: words, brk: brk}
			in.fills.miss.Add(1)
			return
		}
		<-e.ready
		if e.img != nil {
			hm.Store().Restore(e.img.words, e.img.brk)
			in.fills.hits.Add(1)
			return
		}
		// The owner's fill panicked and withdrew the entry; claim again.
	}
}

// coldFill replays the §4 methodology: random keys from a domain of size
// domain until Size elements are held.
func coldFill(hm *htm.Memory, cfg DSConfig, ds dataStructure, domain uint64) {
	raw := htm.Raw{M: hm}
	rng := rand.New(rand.NewSource(int64(cfg.Seed) + 1))
	for n := 0; n < cfg.Size; {
		if ds.Insert(raw, rng.Int63n(int64(domain)), 1) {
			n++
		}
	}
}

// RunObserved executes one benchmark point with observability attached (see
// RunDataStructureObserved), reusing the instance's machine and memory via
// reset-instead-of-rebuild. cfg must pass Validate: a bad point is a
// caller bug and panics before the instance is touched.
func (in *Instance) RunObserved(cfg DSConfig, col *obs.Collector) Result {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("harness: %v (config %+v)", err, cfg))
	}
	simCfg := sim.Config{Procs: cfg.Threads, Seed: cfg.Seed, Quantum: cfg.Quantum, Cores: cfg.Cores}
	memCfg := htm.Config{Words: memoryWords(cfg), AbortOnDangerousWhileUnsubscribed: cfg.HWFix}
	if err := in.hw.Prepare(simCfg, memCfg); err != nil {
		panic(fmt.Sprintf("harness: %v (config %+v)", err, cfg))
	}
	m, hm := in.hw.Machine, in.hw.Memory
	hm.SetCollector(col)

	ds := buildStructure(hm, cfg)
	domain := uint64(2 * cfg.Size)
	if domain == 0 {
		domain = 2
	}
	in.prefill(cfg, ds, domain)

	l := buildLock(hm, cfg.Lock, cfg.Threads)
	inner := buildScheme(hm, cfg.Scheme, l, cfg.Threads)
	if cfg.ACfg != "" {
		// Validate has parsed ACfg and checked the scheme is adaptive.
		acfg, _ := core.ParseAdaptiveConfig(cfg.ACfg)
		if err := inner.(*core.Adaptive).SetConfig(acfg); err != nil {
			panic(fmt.Sprintf("harness: %v (config %+v)", err, cfg))
		}
	}
	s := core.Observe(inner, col)
	var lockLines []int
	if lr, ok := l.(locks.LineReporter); ok {
		lockLines = lr.LockLines()
	}
	col.SetLockLines(lockLines)
	hm.SetSubscriptionLines(lockLines)

	var stats core.Stats
	var slots []Slot
	if cfg.SlotCycles > 0 {
		slots = make([]Slot, cfg.BudgetCycles/cfg.SlotCycles+1)
	}
	for i := 0; i < cfg.Threads; i++ {
		m.Go(func(p *sim.Proc) {
			for p.Clock() < cfg.BudgetCycles {
				r := p.RandN(100)
				key := int64(p.RandN(domain))
				var o core.Outcome
				switch {
				case int(r) < cfg.Mix.InsertPct:
					o = s.Critical(p, func(c htm.Ctx) { ds.Insert(c, key, 1) })
				case int(r) < cfg.Mix.InsertPct+cfg.Mix.DeletePct:
					o = s.Critical(p, func(c htm.Ctx) { ds.Delete(c, key) })
				default:
					o = s.Critical(p, func(c htm.Ctx) { ds.Lookup(c, key) })
				}
				stats.Add(o)
				if cfg.SlotCycles > 0 {
					idx := p.Clock() / cfg.SlotCycles
					if idx >= uint64(len(slots)) {
						idx = uint64(len(slots)) - 1
					}
					slots[idx].Ops++
					if !o.Speculative {
						slots[idx].NonSpec++
					}
				}
			}
		})
	}
	if err := m.Run(); err != nil {
		panic(fmt.Sprintf("harness: %v (config %+v)", err, cfg))
	}
	var maxClock uint64
	for i := 0; i < cfg.Threads; i++ {
		if c := m.Proc(i).Clock(); c > maxClock {
			maxClock = c
		}
	}
	col.SetGauge("run_cycles", int64(maxClock))
	col.SetGauge("run_threads", int64(cfg.Threads))
	col.Finish(maxClock)
	return Result{Config: cfg, Stats: stats, Cycles: maxClock, Slots: slots, LockLines: lockLines}
}
