// Package mem provides the simulated shared memory for the machine: a
// word-addressed store of int64 values grouped into cache lines, a bump
// allocator with a free list, and per-line waiter queues used to model
// threads spinning on a location.
//
// mem knows nothing about transactions; the htm package layers conflict
// detection on top of these lines. All methods must be called from the
// currently running sim.Proc (the single-runner invariant makes plain,
// lock-free Go data safe here).
package mem

import (
	"fmt"

	"elision/internal/sim"
)

// Addr is a word address in simulated memory. Address 0 is reserved as the
// nil pointer; the allocator never returns it.
type Addr int64

// Nil is the null simulated pointer.
const Nil Addr = 0

// LineWords is the number of 8-byte words per cache line (64-byte lines).
const LineWords = 8

const lineShift = 3 // log2(LineWords)

// Store is the simulated physical memory.
//
// Memory is materialized lazily: words holds only the prefix of memory
// that has been allocated or written, and everything past it reads as
// zero. A cold Store therefore costs what its programs touch, not its
// capacity, and Reset scrubs only that prefix. The backing array beyond
// len(words) is always zero, so growing within its capacity is a reslice.
type Store struct {
	words []int64
	size  int // memory size in words (a whole number of lines)
	// waiters maps line id -> blocked procs. It grows on demand in
	// AddWaiter, so it covers only lines some proc has parked on.
	waiters [][]*sim.Proc
	// nWaiters counts registered waiters across all lines, so the wakeup
	// path on every visible store is a single zero test in the common case
	// of nobody parked (speculative phases park no one).
	nWaiters int
	brk      Addr // bump-allocation frontier
}

// geometry rounds a requested size up to whole lines (at least one) and
// returns it in words.
func geometry(words int) int {
	if words < LineWords {
		words = LineWords
	}
	return (words + LineWords - 1) / LineWords * LineWords
}

// NewStore creates a memory of the given size in words, rounded up to a
// whole number of lines.
func NewStore(words int) *Store {
	s := &Store{size: geometry(words), brk: LineWords} // burn line 0 so Addr 0 stays nil
	s.materialize(LineWords)
	return s
}

// materialize sets the materialized prefix to n words (n <= size); a
// caller shrinking it clears the words past n first. A new backing array
// over-allocates geometrically, so a run that allocates ascending
// addresses reallocates O(log) times.
func (s *Store) materialize(n int) {
	if n > cap(s.words) {
		grown := make([]int64, n, min(s.size, max(n, 2*cap(s.words), 1024)))
		copy(grown, s.words)
		s.words = grown
	}
	s.words = s.words[:n]
}

// Reset returns the Store to the state NewStore(words) would produce,
// reusing the backing arrays. Only the materialized prefix is scrubbed, so
// recycling a pooled Store costs O(words the last run touched), not
// O(capacity). Registrations left by procs killed while parked (a
// deadlocked run) are dropped. Must not be called during a run.
func (s *Store) Reset(words int) {
	clear(s.words)
	s.words = s.words[:0]
	s.size = geometry(words)
	s.materialize(LineWords)
	for i := range s.waiters {
		s.waiters[i] = s.waiters[i][:0]
	}
	s.nWaiters = 0
	s.brk = LineWords
}

// Snapshot copies the allocated prefix of memory — the image a later
// Restore replays. The returned slice is detached from the Store.
func (s *Store) Snapshot() ([]int64, Addr) {
	img := make([]int64, s.brk)
	copy(img, s.words[:s.brk])
	return img, s.brk
}

// Restore overwrites memory with a snapshot taken on a Store of the same
// geometry: the image is copied over the front of memory, any previously
// written words beyond it are zeroed, and the allocation frontier is set
// to the snapshot's. Waiter queues are untouched (a Store being restored
// must have none). Restoring is byte-for-byte equivalent to replaying the
// allocations and stores that produced the snapshot.
func (s *Store) Restore(img []int64, brk Addr) {
	if int(brk) > s.size {
		panic(fmt.Sprintf("mem: snapshot frontier %d exceeds store size %d", brk, s.size))
	}
	clear(s.words[min(len(s.words), len(img)):])
	s.materialize(len(img))
	copy(s.words, img)
	s.brk = brk
}

// Words returns the memory size in words.
func (s *Store) Words() int { return s.size }

// Lines returns the memory size in cache lines.
func (s *Store) Lines() int { return s.size / LineWords }

// LineOf maps a word address to its cache-line index.
func LineOf(a Addr) int { return int(a >> lineShift) }

// check panics on wild addresses: simulated programs dereferencing garbage
// is a bug in this repository, not a recoverable condition.
func (s *Store) check(a Addr) {
	if a <= 0 || int(a) >= s.size {
		panic(fmt.Sprintf("mem: wild address %d (memory has %d words)", a, s.size))
	}
}

// Load reads a word with no coherency side effects. Transactional and
// non-transactional semantics (conflict detection, costs) live in htm.
func (s *Store) Load(a Addr) int64 {
	if a > 0 && int(a) < len(s.words) {
		return s.words[a]
	}
	s.check(a)
	return 0 // past the materialized prefix: never written
}

// StoreWord writes a word with no coherency side effects.
func (s *Store) StoreWord(a Addr, v int64) {
	if a <= 0 || int(a) >= len(s.words) {
		s.check(a)
		s.materialize(int(a) + 1)
	}
	s.words[a] = v
}

// Alloc returns n fresh words of zeroed memory. It never fails; running out
// of simulated memory panics, since benchmark sizing is static.
func (s *Store) Alloc(n int) Addr {
	if n <= 0 {
		panic("mem: Alloc of non-positive size")
	}
	a := s.brk
	s.brk += Addr(n)
	if int(s.brk) > s.size {
		panic(fmt.Sprintf("mem: out of simulated memory (brk %d > %d words); size the Store larger", s.brk, s.size))
	}
	if int(s.brk) > len(s.words) {
		s.materialize(int(s.brk))
	}
	return a
}

// AllocLines returns n fresh cache lines, line-aligned. Data structures
// allocate nodes line-aligned so that distinct nodes never share a line:
// conflict granularity then matches node granularity, as it (mostly) does
// for heap allocators on real hardware.
func (s *Store) AllocLines(n int) Addr {
	if rem := s.brk % LineWords; rem != 0 {
		s.brk += LineWords - rem
	}
	return s.Alloc(n * LineWords)
}

// AddWaiter registers p as blocked on the line containing a. The caller must
// subsequently call p.Block; any write to the line wakes all its waiters.
func (s *Store) AddWaiter(a Addr, p *sim.Proc) {
	s.check(a)
	l := LineOf(a)
	if l >= len(s.waiters) {
		s.waiters = append(s.waiters, make([][]*sim.Proc, l+1-len(s.waiters))...)
	}
	s.waiters[l] = append(s.waiters[l], p)
	s.nWaiters++
}

// RemoveWaiter deregisters p from the line containing a (used after a
// timeout wake, so a later store does not wake a proc that no longer waits).
func (s *Store) RemoveWaiter(a Addr, p *sim.Proc) {
	l := LineOf(a)
	if l >= len(s.waiters) {
		return
	}
	ws := s.waiters[l]
	for i, q := range ws {
		if q == p {
			ws[i] = ws[len(ws)-1]
			s.waiters[l] = ws[:len(ws)-1]
			s.nWaiters--
			return
		}
	}
}

// WakeWaiters wakes every proc blocked on the line containing a, as cause,
// with the given coherency latency. Called by htm on every visible store.
func (s *Store) WakeWaiters(a Addr, by *sim.Proc, cause sim.WakeCause, latency uint64) {
	if s.nWaiters == 0 {
		return
	}
	l := LineOf(a)
	if l >= len(s.waiters) {
		return
	}
	ws := s.waiters[l]
	if len(ws) == 0 {
		return
	}
	for _, q := range ws {
		by.Wake(q, cause, latency)
	}
	s.nWaiters -= len(ws)
	s.waiters[l] = ws[:0]
}
