package htm

import (
	"testing"
	"testing/quick"

	"elision/internal/mem"
	"elision/internal/sim"
)

// TestPropertyConservedTransfers: under any seed, concurrent transactional
// transfers between random cells preserve the total sum — transactions are
// atomic and isolated (serializable), or they abort cleanly.
func TestPropertyConservedTransfers(t *testing.T) {
	const cells, procs, iters, initial = 16, 6, 25, 100
	f := func(seed uint64) bool {
		m := sim.MustNew(sim.Config{Procs: procs, Seed: seed})
		cost := testCost()
		cost.SpuriousDenom = 500 // plenty of aborts in the mix
		hm := NewMemory(m, Config{Words: 1 << 14, Cost: cost})
		base := hm.Store().AllocLines(cells)
		at := func(i uint64) mem.Addr { return base + mem.Addr(i)*mem.LineWords }
		for i := uint64(0); i < cells; i++ {
			hm.Store().StoreWord(at(i), initial)
		}
		for pi := 0; pi < procs; pi++ {
			m.Go(func(p *sim.Proc) {
				for k := 0; k < iters; k++ {
					from, to := p.RandN(cells), p.RandN(cells)
					amt := int64(p.RandN(20))
					st := hm.Atomic(p, func(tx *Tx) {
						f := tx.Load(at(from))
						if f < amt {
							return
						}
						tx.Store(at(from), f-amt)
						tx.Store(at(to), tx.Load(at(to))+amt)
					})
					_ = st // aborted transfers simply didn't happen
					p.Advance(p.RandN(100))
				}
			})
		}
		if err := m.Run(); err != nil {
			return false
		}
		var sum int64
		for i := uint64(0); i < cells; i++ {
			sum += hm.Store().Load(at(i))
		}
		return sum == cells*initial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyElisionInvisible: for any seed and any interleaving, an
// elided lock acquisition is never observable by other threads — the lock
// word reads 0 to everyone while speculators "hold" it.
func TestPropertyElisionInvisible(t *testing.T) {
	f := func(seed uint64) bool {
		const procs = 4
		m := sim.MustNew(sim.Config{Procs: procs, Seed: seed})
		hm := NewMemory(m, Config{Words: 1 << 12, Cost: testCost()})
		lock := hm.Store().AllocLines(1)
		ok := true
		for pi := 0; pi < procs-1; pi++ {
			m.Go(func(p *sim.Proc) {
				for k := 0; k < 10; k++ {
					hm.Atomic(p, func(tx *Tx) {
						old := tx.ElideRMW(lock, func(int64) int64 { return 1 })
						if old != 0 {
							ok = false // someone's elision leaked
						}
						p.Advance(p.RandN(300))
						tx.ReleaseStore(lock, 0)
					})
				}
			})
		}
		m.Go(func(p *sim.Proc) { // observer
			for k := 0; k < 40; k++ {
				if hm.LoadNT(p, lock) != 0 {
					ok = false
				}
				p.Advance(p.RandN(200))
			}
		})
		if err := m.Run(); err != nil {
			return false
		}
		return ok && hm.Store().Load(lock) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAbortLeavesNoTrace: any transaction that aborts (for any
// cause) leaves memory and conflict metadata exactly as it found them.
func TestPropertyAbortLeavesNoTrace(t *testing.T) {
	f := func(seed uint64, wordsRaw uint8) bool {
		n := int(wordsRaw%8) + 1
		m := sim.MustNew(sim.Config{Procs: 1, Seed: seed})
		hm := NewMemory(m, Config{Words: 1 << 12, Cost: testCost()})
		base := hm.Store().AllocLines(8)
		at := func(i int) mem.Addr { return base + mem.Addr(i)*mem.LineWords }
		m.Go(func(p *sim.Proc) {
			st := hm.Atomic(p, func(tx *Tx) {
				for i := 0; i < n; i++ {
					tx.Store(at(i), int64(i)+1)
				}
				tx.Abort(int(seed % 250))
			})
			_ = st
		})
		if err := m.Run(); err != nil {
			return false
		}
		for i := 0; i < 8; i++ {
			if hm.Store().Load(at(i)) != 0 {
				return false
			}
			lm := hm.line(mem.LineOf(at(i)))
			if lm.readers != 0 || lm.writer != 0 { // 0 encodes "no writer"
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
