package sim

import (
	"runtime"
	"testing"
)

// spinBody is a package-level body so the allocation bound below counts
// only what the machine allocates, not a per-iteration closure.
func spinBody(p *Proc) {
	for i := 0; i < 20; i++ {
		p.Advance(10)
	}
}

// checkNoCoroutineLeft runs f and asserts that it leaves the host goroutine
// count where it found it: every proc coroutine Run created has finished.
func checkNoCoroutineLeft(t *testing.T, name string, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%s: %d goroutines before Run, %d after", name, before, after)
	}
}

// TestRunLeavesNoCoroutines covers every way Run ends: normally, in a
// deadlock with procs parked in Block, on a body panic while other procs
// are parked, and across many Reset+Run cycles of one pooled Machine.
func TestRunLeavesNoCoroutines(t *testing.T) {
	checkNoCoroutineLeft(t, "normal run", func() {
		m := MustNew(Config{Procs: 4, Seed: 1})
		for i := 0; i < 4; i++ {
			m.Go(spinBody)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})

	checkNoCoroutineLeft(t, "deadlock", func() {
		m := MustNew(Config{Procs: 3, Seed: 1})
		for i := 0; i < 3; i++ {
			m.Go(func(p *Proc) {
				p.Advance(5)
				p.Block(NoDeadline)
				t.Error("a deadlocked proc resumed")
			})
		}
		if err := m.Run(); err != ErrDeadlock {
			t.Fatalf("Run = %v, want ErrDeadlock", err)
		}
	})

	checkNoCoroutineLeft(t, "body panic", func() {
		m := MustNew(Config{Procs: 3, Seed: 1})
		m.Go(func(p *Proc) { p.Block(NoDeadline) })
		m.Go(func(p *Proc) { p.Block(NoDeadline) })
		m.Go(func(p *Proc) {
			p.Advance(10)
			panic("boom")
		})
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want boom", r)
				}
			}()
			_ = m.Run()
			t.Fatal("Run returned without panicking")
		}()
	})

	checkNoCoroutineLeft(t, "50 Reset+Run cycles", func() {
		m := MustNew(Config{Procs: 8, Seed: 1})
		for k := 0; k < 50; k++ {
			if err := m.Reset(Config{Procs: 8, Seed: uint64(k)}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				m.Go(spinBody)
			}
			if err := m.Run(); err != nil {
				t.Fatalf("cycle %d: Run: %v", k, err)
			}
		}
	})
}

// TestResetRunAllocs pins the allocations of one 8-proc Reset+Run on a
// pooled Machine. Nearly all of them are the per-Run coroutine set-up
// (iter.Pull, about eleven per live proc); a rise here is per-point set-up
// cost every pooled campaign pays.
func TestResetRunAllocs(t *testing.T) {
	const limit = 88
	m := MustNew(Config{Procs: 8, Seed: 1})
	got := testing.AllocsPerRun(100, func() {
		if err := m.Reset(Config{Procs: 8, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			m.Go(spinBody)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Fatalf("Reset+Run of 8 procs allocates %v times, want <= %d", got, limit)
	}
}
