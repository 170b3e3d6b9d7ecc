package htm

import "elision/internal/sim"

// Pair is a reusable simulator: one sim.Machine plus the Memory over it,
// built on first use and reset in place for every later run. Reset costs
// what the previous run dirtied, not what a cold build costs, and a reset
// pair behaves bit-for-bit like a freshly built one. The harness's pooled
// benchmark instances and the model checker's per-worker case instances
// both run on a Pair.
//
// A Pair is not safe for concurrent use; each worker needs its own.
type Pair struct {
	Machine *sim.Machine
	Memory  *Memory
	// Builds counts cold constructions, Resets reuses.
	Builds, Resets uint64
}

// Prepare readies the pair for one run under the given configurations:
// it builds the machine and memory on first use and resets them
// afterwards. It returns the machine's configuration error, if any,
// leaving a previously built pair untouched.
func (p *Pair) Prepare(sc sim.Config, mc Config) error {
	if p.Machine == nil {
		m, err := sim.New(sc)
		if err != nil {
			return err
		}
		p.Machine, p.Memory = m, NewMemory(m, mc)
		p.Builds++
		return nil
	}
	if err := p.Machine.Reset(sc); err != nil {
		return err
	}
	p.Memory.Reset(p.Machine, mc)
	p.Resets++
	return nil
}
