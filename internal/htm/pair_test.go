package htm

import (
	"fmt"
	"reflect"
	"testing"

	"elision/internal/mem"
	"elision/internal/sim"
)

// pairRun is everything observable about one contended run: each proc's
// transaction outcomes and final clock, and the final memory image.
type pairRun struct {
	outcomes []string
	clocks   []uint64
	image    []int64
	brk      mem.Addr
}

// runContended allocates lines cache lines and has every proc mix
// transactional increments of random lines with non-transactional
// fetch-adds on a shared counter, under the default cost model (spurious
// aborts and all), so the result depends on every piece of per-line state.
func runContended(t *testing.T, m *sim.Machine, hm *Memory, lines, ops int) pairRun {
	t.Helper()
	base := hm.Store().AllocLines(lines)
	counter := hm.Store().AllocLines(1)
	var r pairRun
	for i := 0; i < m.Procs(); i++ {
		m.Go(func(p *sim.Proc) {
			for k := 0; k < ops; k++ {
				a := base + mem.Addr(p.RandN(uint64(lines))*mem.LineWords)
				st := hm.Atomic(p, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
				r.outcomes = append(r.outcomes, fmt.Sprintf("p%d:%v/%v@%d", p.ID(), st.Committed, st.Cause, p.Clock()))
				if k%3 == 0 {
					hm.FetchAddNT(p, counter, 1)
				}
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Procs(); i++ {
		r.clocks = append(r.clocks, m.Proc(i).Clock())
	}
	r.image, r.brk = hm.Store().Snapshot()
	return r
}

// TestPairResetAcrossGeometriesMatchesFresh: a pair reset from a large
// geometry to a smaller one, and back, runs exactly like freshly built
// machines and memories of those geometries.
func TestPairResetAcrossGeometriesMatchesFresh(t *testing.T) {
	type geom struct {
		procs, words, lines, ops int
		hwfix                    bool
	}
	var hw Pair
	for i, g := range []geom{
		{procs: 8, words: 1 << 14, lines: 1500, ops: 40},
		{procs: 2, words: 1 << 10, lines: 40, ops: 30, hwfix: true},
		{procs: 8, words: 1 << 14, lines: 200, ops: 40},
	} {
		sc := sim.Config{Procs: g.procs, Seed: uint64(10 + i), Quantum: 64}
		mc := Config{Words: g.words, AbortOnDangerousWhileUnsubscribed: g.hwfix}
		fm := sim.MustNew(sc)
		want := runContended(t, fm, NewMemory(fm, mc), g.lines, g.ops)
		if err := hw.Prepare(sc, mc); err != nil {
			t.Fatal(err)
		}
		if hw.Memory.Store().Words() != g.words {
			t.Fatalf("step %d: reset memory has %d words, want %d", i, hw.Memory.Store().Words(), g.words)
		}
		got := runContended(t, hw.Machine, hw.Memory, g.lines, g.ops)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%+v): reset pair diverged from a fresh build", i, g)
		}
	}
	if hw.Builds != 1 || hw.Resets != 2 {
		t.Fatalf("pair built %d times and reset %d, want 1 and 2", hw.Builds, hw.Resets)
	}
	if err := hw.Prepare(sim.Config{Procs: 0}, Config{}); err == nil {
		t.Fatal("Prepare accepted a zero-proc machine")
	}
}
