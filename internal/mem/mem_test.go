package mem

import (
	"testing"
	"testing/quick"

	"elision/internal/sim"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	s := NewStore(1024)
	a := s.Alloc(4)
	s.StoreWord(a, 42)
	s.StoreWord(a+1, -7)
	if got := s.Load(a); got != 42 {
		t.Fatalf("Load(a) = %d, want 42", got)
	}
	if got := s.Load(a + 1); got != -7 {
		t.Fatalf("Load(a+1) = %d, want -7", got)
	}
}

func TestAllocNeverReturnsNil(t *testing.T) {
	s := NewStore(4096)
	for i := 0; i < 100; i++ {
		if a := s.Alloc(3); a == Nil {
			t.Fatal("Alloc returned the nil address")
		}
	}
}

func TestAllocLinesAligned(t *testing.T) {
	s := NewStore(4096)
	s.Alloc(3) // misalign the frontier
	for i := 0; i < 20; i++ {
		a := s.AllocLines(1)
		if int(a)%LineWords != 0 {
			t.Fatalf("AllocLines returned unaligned address %d", a)
		}
	}
}

func TestDistinctAllocationsDoNotOverlap(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := NewStore(1 << 16)
		type region struct{ a, n Addr }
		var regions []region
		for _, sz := range sizes {
			n := Addr(sz%16 + 1)
			a := s.Alloc(int(n))
			for _, r := range regions {
				if a < r.a+r.n && r.a < a+n {
					return false
				}
			}
			regions = append(regions, region{a, n})
			if len(regions) > 200 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(7) != 0 {
		t.Fatal("words 0..7 must share line 0")
	}
	if LineOf(8) != 1 {
		t.Fatal("word 8 must start line 1")
	}
	a := Addr(12345)
	if LineOf(a) != int(a)/LineWords {
		t.Fatal("LineOf disagrees with integer division")
	}
}

func TestWildAddressPanics(t *testing.T) {
	s := NewStore(64)
	for _, a := range []Addr{0, -1, 1 << 30} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Load(%d) did not panic", a)
				}
			}()
			s.Load(a)
		}()
	}
}

func TestWaitersWokenByStore(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 1})
	s := NewStore(1024)
	a := s.Alloc(1)
	var woke sim.WakeCause
	waiter := m.Go(func(p *sim.Proc) {
		s.AddWaiter(a, p)
		woke = p.Block(sim.NoDeadline)
	})
	_ = waiter
	m.Go(func(p *sim.Proc) {
		p.Advance(100)
		s.StoreWord(a, 1)
		s.WakeWaiters(a, p, sim.WakeStore, 10)
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != sim.WakeStore {
		t.Fatalf("woke = %v, want WakeStore", woke)
	}
}

func TestRemoveWaiter(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 1})
	s := NewStore(1024)
	a := s.Alloc(1)
	var causes []sim.WakeCause
	m.Go(func(p *sim.Proc) {
		s.AddWaiter(a, p)
		causes = append(causes, p.Block(50)) // times out
		s.RemoveWaiter(a, p)
		causes = append(causes, p.Block(200)) // must NOT be woken by the store
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(100)
		s.WakeWaiters(a, p, sim.WakeStore, 0)
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []sim.WakeCause{sim.WakeTimeout, sim.WakeTimeout}
	for i := range want {
		if causes[i] != want[i] {
			t.Fatalf("causes = %v, want %v", causes, want)
		}
	}
}

func TestWakeWaitersClearsList(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 3, Seed: 1})
	s := NewStore(1024)
	a := s.Alloc(1)
	wokenCount := 0
	for i := 0; i < 2; i++ {
		m.Go(func(p *sim.Proc) {
			s.AddWaiter(a, p)
			if p.Block(sim.NoDeadline) == sim.WakeStore {
				wokenCount++
			}
		})
	}
	m.Go(func(p *sim.Proc) {
		p.Advance(10)
		s.WakeWaiters(a, p, sim.WakeStore, 5)
		s.WakeWaiters(a, p, sim.WakeStore, 5) // second call: list empty, no-op
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokenCount != 2 {
		t.Fatalf("woke %d waiters, want 2", wokenCount)
	}
}

// TestWaiterCountTracksRegistrations exercises the global waiter counter
// behind WakeWaiters' zero-test fast path: adds, removals (including of
// absent procs) and wakes must keep it consistent, or stores would silently
// stop waking parked procs.
func TestWaiterCountTracksRegistrations(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 3, Seed: 1})
	s := NewStore(1024)
	a := s.AllocLines(1)
	b := s.AllocLines(1)

	woken := 0
	m.Go(func(p *sim.Proc) { // waiter on a
		s.AddWaiter(a, p)
		p.Block(sim.NoDeadline)
		woken++
	})
	m.Go(func(p *sim.Proc) { // waiter on b, deregisters itself after timeout
		s.AddWaiter(b, p)
		p.Block(p.Clock() + 50)
		s.RemoveWaiter(b, p)
		s.RemoveWaiter(b, p) // absent removal must not corrupt the count
		if s.nWaiters != 1 {
			t.Errorf("after timeout removal: nWaiters = %d, want 1", s.nWaiters)
		}
	})
	m.Go(func(p *sim.Proc) { // the waker
		p.Advance(200)
		if s.nWaiters != 1 {
			t.Errorf("before wake: nWaiters = %d, want 1", s.nWaiters)
		}
		s.StoreWord(a, 7)
		s.WakeWaiters(a, p, sim.WakeStore, 1)
		if s.nWaiters != 0 {
			t.Errorf("after wake: nWaiters = %d, want 0", s.nWaiters)
		}
		// Fast path: no waiters anywhere, wake must be a no-op.
		s.WakeWaiters(b, p, sim.WakeStore, 1)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
}

// TestLazyMemoryReadsZeroAndResetScrubs: words past the materialized
// prefix read as zero, a store there materializes it, and Reset and
// Restore leave no trace of words the last run wrote, at any geometry.
func TestLazyMemoryReadsZeroAndResetScrubs(t *testing.T) {
	s := NewStore(4096)
	if s.Words() != 4096 || s.Lines() != 512 {
		t.Fatalf("store has %d words, %d lines; want 4096, 512", s.Words(), s.Lines())
	}
	if got := s.Load(4000); got != 0 {
		t.Fatalf("unwritten word reads %d", got)
	}
	s.StoreWord(4000, 9) // unallocated but in range, as tests of raw memory do
	a := s.Alloc(100)
	s.StoreWord(a+99, 5)
	img, brk := s.Snapshot()
	if s.Load(4000) != 9 || s.Load(a+99) != 5 {
		t.Fatal("stored words did not read back")
	}

	s.Reset(1 << 12)
	if s.Load(4000) != 0 || s.Load(a+99) != 0 {
		t.Fatal("Reset left written words behind")
	}
	s.StoreWord(4000, 3)
	s.Restore(img, brk)
	if s.Load(4000) != 0 || s.Load(a+99) != 5 || s.Alloc(1) != brk {
		t.Fatal("Restore is not the snapshot image followed by zeros")
	}

	s.Reset(64) // a smaller geometry on the same backing array
	if s.Words() != 64 || s.Load(63) != 0 {
		t.Fatalf("shrunk store: %d words, word 63 = %d", s.Words(), s.Load(63))
	}
	defer func() {
		if recover() == nil {
			t.Error("Load past the shrunk store did not panic")
		}
	}()
	s.Load(64)
}
