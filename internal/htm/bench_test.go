package htm

import (
	"testing"

	"elision/internal/sim"
)

// runOneTxPerProc runs one small transaction on each of the machine's
// procs, each storing to its own freshly allocated line.
func runOneTxPerProc(b *testing.B, m *sim.Machine, hm *Memory) {
	for i := 0; i < m.Procs(); i++ {
		a := hm.Store().AllocLines(1)
		m.Go(func(p *sim.Proc) {
			hm.Atomic(p, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
		})
	}
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMemorySetup times readying a model-checker-sized memory
// (1<<18 words) and running one transaction on each of 8 procs: "cold"
// builds the machine and memory from scratch every iteration, "pooled"
// resets one htm.Pair. Cold cost and bytes track the lines a run touches,
// not the memory's capacity.
func BenchmarkMemorySetup(b *testing.B) {
	sc := sim.Config{Procs: 8, Seed: 1}
	mc := Config{Words: 1 << 18}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := sim.MustNew(sc)
			runOneTxPerProc(b, m, NewMemory(m, mc))
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		var hw Pair
		for i := 0; i < b.N; i++ {
			if err := hw.Prepare(sc, mc); err != nil {
				b.Fatal(err)
			}
			runOneTxPerProc(b, hw.Machine, hw.Memory)
		}
	})
}
