package sim

import (
	"testing"
	"testing/quick"
)

func TestSingleProcRunsToCompletion(t *testing.T) {
	m := MustNew(Config{Procs: 1, Seed: 1})
	ran := false
	m.Go(func(p *Proc) {
		p.Advance(100)
		ran = true
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	if got := m.Proc(0).Clock(); got != 100 {
		t.Fatalf("clock = %d, want 100", got)
	}
}

func TestNewRejectsBadProcCounts(t *testing.T) {
	for _, n := range []int{0, -1, MaxProcs + 1} {
		if _, err := New(Config{Procs: n}); err == nil {
			t.Errorf("New(Procs=%d) succeeded, want error", n)
		}
	}
	if _, err := New(Config{Procs: MaxProcs}); err != nil {
		t.Errorf("New(Procs=%d): %v", MaxProcs, err)
	}
}

// TestMinClockInterleaving checks that control always goes to the proc with
// the smallest virtual clock: two procs with different step sizes must
// interleave in global time order.
func TestMinClockInterleaving(t *testing.T) {
	m := MustNew(Config{Procs: 2, Seed: 1})
	var order []int
	var stamps []uint64
	mk := func(step uint64, iters int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < iters; i++ {
				p.Advance(step)
				order = append(order, p.ID())
				stamps = append(stamps, p.Clock())
			}
		}
	}
	m.Go(mk(10, 10))
	m.Go(mk(25, 4))
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("events out of virtual-time order at %d: %v / %v", i, order, stamps)
		}
	}
}

func TestBlockTimeout(t *testing.T) {
	m := MustNew(Config{Procs: 1, Seed: 1})
	var cause WakeCause
	m.Go(func(p *Proc) {
		p.Advance(50)
		cause = p.Block(500)
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cause != WakeTimeout {
		t.Fatalf("cause = %v, want WakeTimeout", cause)
	}
	if got := m.Proc(0).Clock(); got != 500 {
		t.Fatalf("clock after timeout = %d, want 500", got)
	}
}

func TestWakeFromBlock(t *testing.T) {
	m := MustNew(Config{Procs: 2, Seed: 1})
	var cause WakeCause
	var wakeClock uint64
	waiter := m.Go(func(p *Proc) {
		cause = p.Block(NoDeadline)
		wakeClock = p.Clock()
	})
	m.Go(func(p *Proc) {
		p.Advance(300)
		p.Wake(waiter, WakeStore, 40)
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cause != WakeStore {
		t.Fatalf("cause = %v, want WakeStore", cause)
	}
	if wakeClock != 340 {
		t.Fatalf("waiter resumed at %d, want 340 (waker clock + latency)", wakeClock)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := MustNew(Config{Procs: 2, Seed: 1})
	m.Go(func(p *Proc) { p.Block(NoDeadline) })
	m.Go(func(p *Proc) { p.Block(NoDeadline) })
	if err := m.Run(); err != ErrDeadlock {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
}

// TestTimeoutOrderedAgainstRunners: a blocked proc with deadline D must run
// at D even while another proc is still runnable with a larger clock.
func TestTimeoutOrderedAgainstRunners(t *testing.T) {
	m := MustNew(Config{Procs: 2, Seed: 1})
	var resumeAt, runnerAt uint64
	m.Go(func(p *Proc) {
		p.Block(100)
		resumeAt = p.Clock()
		runnerAt = m.Proc(1).Clock()
	})
	m.Go(func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(7)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resumeAt != 100 {
		t.Fatalf("blocked proc resumed at %d, want 100", resumeAt)
	}
	// At the moment the timed-out proc runs, the runner must not have raced
	// far past the deadline: it was last dispatched at a clock <= 100+7.
	if runnerAt > 107 {
		t.Fatalf("runner clock %d when deadline 100 fired", runnerAt)
	}
}

func TestDeterministicRNG(t *testing.T) {
	run := func() []uint64 {
		m := MustNew(Config{Procs: 2, Seed: 42})
		var vals []uint64
		for i := 0; i < 2; i++ {
			m.Go(func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Advance(1)
					vals = append(vals, p.Rand64())
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRandNBounds(t *testing.T) {
	cfg := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		n = n%1000 + 1
		m := MustNew(Config{Procs: 1, Seed: seed})
		ok := true
		m.Go(func(p *Proc) {
			for i := 0; i < 100; i++ {
				if v := p.RandN(n); v >= n {
					ok = false
				}
			}
		})
		if err := m.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(cfg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBodyPanicPropagates(t *testing.T) {
	m := MustNew(Config{Procs: 2, Seed: 1})
	m.Go(func(p *Proc) { p.Block(NoDeadline) })
	m.Go(func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	_ = m.Run()
	t.Fatal("Run returned without panicking")
}

func TestWakeOnRunnableIsNoop(t *testing.T) {
	m := MustNew(Config{Procs: 2, Seed: 1})
	other := m.Go(func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Advance(10)
		}
	})
	m.Go(func(p *Proc) {
		p.Advance(1)
		p.Wake(other, WakeStore, 0) // other is ready, not blocked
		p.Advance(100)
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestManyProcsFairProgress: N procs doing equal work finish at equal clocks.
func TestManyProcsFairProgress(t *testing.T) {
	const n = 8
	m := MustNew(Config{Procs: n, Seed: 9})
	for i := 0; i < n; i++ {
		m.Go(func(p *Proc) {
			for j := 0; j < 1000; j++ {
				p.Advance(5)
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := m.Proc(i).Clock(); got != 5000 {
			t.Fatalf("proc %d clock = %d, want 5000", i, got)
		}
	}
}

// TestSchedAdvanceFingerprint pins the raw scheduler workload (eight procs,
// 50 000 Advance(10) steps each, Quantum 128) at its final virtual time.
func TestSchedAdvanceFingerprint(t *testing.T) {
	m := MustNew(Config{Procs: 8, Seed: 1, Quantum: 128})
	for i := 0; i < 8; i++ {
		m.Go(func(p *Proc) {
			for k := 0; k < 50_000; k++ {
				p.Advance(10)
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	const want = 500_000
	var last uint64
	for i := 0; i < 8; i++ {
		last = max(last, m.Proc(i).Clock())
	}
	if last != want {
		t.Fatalf("final clock = %d, want %d", last, want)
	}
}
