package main

import (
	"encoding/binary"
	"hash/fnv"

	"elision/internal/core"
	"elision/internal/harness"
	"elision/internal/modelcheck"
)

// workers is the fleet width every workload runs at: two closed-loop
// workers, each taking its next point only when its previous one is done.
const workers = 2

// defaultSeed is the workload seed whose simulated digests are pinned in
// pins.go. heldOutSeed is never used while tuning a change; a later claim
// is confirmed on it (other seeds rely on the in-run cross-checks).
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupBatchBase offsets the batch index of set-up repetitions so their
// inputs never coincide with the measured batches'.
const setupBatchBase = 1 << 20

// mixSeed derives a point seed from the workload seed and a (batch, slot)
// position with a splitmix64 finalizer, so every batch draws fresh fill
// images and schedules and the runner's memo cache never short-cuts a
// point.
func mixSeed(seed uint64, batch, slot int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(batch)*0xD1B54A32D192ED03 + uint64(slot)*0x8CB92BA72F3D8DD7
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// harnessWorkload is a closed-loop batch workload over harness.Runner.RunAll:
// batch b is a fixed grid of configs whose seeds derive from (seed, b).
type harnessWorkload struct {
	name      string
	fillSeeds int
	schemes   []harness.SchemeID
	locks     []harness.LockID
	structs   []harness.Structure
	mixes     []harness.Mix
	size      int
}

// batch returns batch b of the workload for the given workload seed: the
// scheme × lock × structure × mix grid once per fill seed, fill seed
// outermost so points sharing a prefill image are adjacent.
func (w *harnessWorkload) batch(seed uint64, b int) []harness.DSConfig {
	var out []harness.DSConfig
	for k := 0; k < w.fillSeeds; k++ {
		s := mixSeed(seed, b, k)
		for _, sc := range w.schemes {
			for _, l := range w.locks {
				for _, st := range w.structs {
					for _, mx := range w.mixes {
						out = append(out, harness.DSConfig{
							Structure:    st,
							Threads:      8,
							Size:         w.size,
							Mix:          mx,
							Scheme:       sc,
							Lock:         l,
							BudgetCycles: 400_000,
							Seed:         s,
							Quantum:      128,
						})
					}
				}
			}
		}
	}
	return out
}

// lemming is the paper's §4 lemming point: HLE-family schemes over
// non-elision-friendly and elision-friendly locks under contention, where
// aborts force real lock acquisition.
var lemming = &harnessWorkload{
	name:      "lemming",
	fillSeeds: 4,
	schemes:   []harness.SchemeID{harness.SchemeHLE, harness.SchemeHLERetries, harness.SchemeHLESCM, harness.SchemeStandard},
	locks:     []harness.LockID{harness.LockMCS, harness.LockTicketHLE, harness.LockCLHHLE, harness.LockTTAS},
	structs:   []harness.Structure{harness.StructTree},
	mixes:     []harness.Mix{harness.MixModerate, harness.MixExtensive},
	size:      128,
}

// speculative commits almost every operation speculatively over a working
// set 32× larger than lemming's, so host time goes to the transactional
// access path.
var speculative = &harnessWorkload{
	name:      "speculative",
	fillSeeds: 5,
	schemes:   []harness.SchemeID{harness.SchemeOptSLR, harness.SchemeSLRSCM, harness.SchemeAdaptiveSLR},
	locks:     []harness.LockID{harness.LockTTAS, harness.LockMCS},
	structs:   []harness.Structure{harness.StructTree, harness.StructHash},
	mixes:     []harness.Mix{harness.MixLookupOnly, harness.MixModerate},
	size:      4096,
}

// mcSeedsPerCombo is the number of cases per scheme × lock combination in
// one modelcheck campaign.
const mcSeedsPerCombo = 4

// campaignConfig is round r of the modelcheck workload: every real scheme ×
// lock (lazysub under its expected-fail profile) with shrinking on, as the
// nightly gate runs it.
func campaignConfig(seed uint64, round int) modelcheck.CampaignConfig {
	return modelcheck.CampaignConfig{
		SeedBase: mixSeed(seed, round, 0),
		Seeds:    mcSeedsPerCombo,
		Shrink:   true,
		Workers:  workers,
	}
}

// digest is a point's simulated fingerprint: every core.Stats counter plus
// the covered virtual cycles, FNV-1a hashed.
func digest(st core.Stats, cycles uint64) uint64 {
	words := []uint64{st.Ops, st.Spec, st.NonSpec, st.Aborts, st.Attempts, st.AuxAcquires}
	words = append(words, st.ByCause[:]...)
	words = append(words, st.ForfeitOps, st.ForfeitEntries, st.ForfeitExits)
	words = append(words, st.ExhaustedByClass[:]...)
	words = append(words, cycles)
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}
