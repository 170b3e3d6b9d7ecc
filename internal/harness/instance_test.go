package harness

import (
	"reflect"
	"testing"

	"elision/internal/fleet"
	"elision/internal/htm"
)

// instanceTestConfigs returns three benchmark points spanning both
// structures, two schemes and two geometries — enough to exercise the reset
// paths (proc-count change, memory-size change, structure change).
func instanceTestConfigs() (a, b, c DSConfig) {
	a = DSConfig{
		Structure: StructTree, Threads: 4, Size: 64, Mix: MixModerate,
		Scheme: SchemeHLE, Lock: LockMCS,
		BudgetCycles: 60_000, Seed: 42, Quantum: 128,
	}
	b = a
	b.Structure, b.Scheme, b.Lock = StructHash, SchemeOptSLR, LockTTAS
	b.Threads, b.Size = 8, 128
	c = a
	c.Scheme, c.Seed = SchemeHLESCM, 7
	return a, b, c
}

// TestInstanceReuseMatchesFresh: running A→B→A→C on one pooled instance must
// reproduce, bit for bit, what fresh single-use simulators produce. This is
// the reset-instead-of-rebuild determinism contract.
func TestInstanceReuseMatchesFresh(t *testing.T) {
	a, b, c := instanceTestConfigs()
	seq := []DSConfig{a, b, a, c, b}

	in := NewInstance(nil)
	for i, cfg := range seq {
		pooled := in.Run(cfg)
		fresh := RunDataStructure(cfg)
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("step %d (%s/%s/%s): pooled result diverges from fresh\npooled: %+v\nfresh:  %+v",
				i, cfg.Structure, cfg.Scheme, cfg.Lock, pooled, fresh)
		}
	}
}

// TestPrefillRestoreMatchesColdFill: a point whose prefill is restored from
// a snapshot must produce exactly the result of a cold insert-replay fill.
func TestPrefillRestoreMatchesColdFill(t *testing.T) {
	a, b, _ := instanceTestConfigs()
	for _, cfg := range []DSConfig{a, b} {
		fills := NewFillCache()
		in := NewInstance(fills)

		cold := in.Run(cfg) // first run: cold fill, captures the snapshot
		if hits, misses := fills.Stats(); hits != 0 || misses != 1 {
			t.Fatalf("after first run: hits=%d misses=%d, want 0/1", hits, misses)
		}
		warm := in.Run(cfg) // second run: prefill restored by copy
		if hits, _ := fills.Stats(); hits != 1 {
			t.Fatalf("second run did not restore from snapshot")
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("%s: restored-prefill result diverges from cold fill\ncold: %+v\nwarm: %+v",
				cfg.Structure, cold, warm)
		}
	}
}

// TestFillCacheSharedAcrossSchemes: points differing only in scheme/lock
// share one fill key, so a grid pays exactly one cold fill per key, even
// when parallel workers reach a key at once.
func TestFillCacheSharedAcrossSchemes(t *testing.T) {
	a, _, _ := instanceTestConfigs()
	oneKey := []DSConfig{a, a, a, a}
	oneKey[1].Scheme = SchemeOptSLR
	oneKey[2].Lock = LockTTAS
	oneKey[3].Scheme, oneKey[3].Lock = SchemeStandard, LockTTAS

	for _, c := range []struct {
		name    string
		grid    []DSConfig
		workers int
		keys    uint64
	}{
		{"one-key", oneKey, 0, 1},
		// Tree and hash under four schemes and two locks: two keys.
		{"campaign-4-workers", benchCampaignGrid(), 4, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRunner()
			r.Workers = c.workers
			r.Profile = fleet.NewProfile()
			r.RunAll(c.grid)
			hits, misses := r.PrefillStats()
			if misses != c.keys || hits != uint64(len(c.grid))-c.keys {
				t.Fatalf("prefill stats = %d hits / %d misses, want %d/%d",
					hits, misses, uint64(len(c.grid))-c.keys, c.keys)
			}
			if jobs := r.Profile.Jobs(); jobs != uint64(len(c.grid)) {
				t.Fatalf("fleet profile saw %d jobs, want %d", jobs, len(c.grid))
			}
		})
	}
}

// panickyFill is a data structure whose first insert panics, after
// grabbing the in-flight fill entry the way a waiting worker would.
type panickyFill struct {
	dataStructure
	fills  *FillCache
	key    fillKey
	waiter *fillEntry
}

func (p *panickyFill) Insert(htm.Accessor, int64, int64) bool {
	p.waiter, _ = p.fills.claim(p.key)
	panic("fill failed")
}

// TestFillCachePanickedFillReleases: a cold fill that panics must wake its
// waiters and withdraw the entry, so the next point fills the key afresh.
func TestFillCachePanickedFillReleases(t *testing.T) {
	a, _, _ := instanceTestConfigs()
	fills := NewFillCache()
	in := NewInstance(fills)
	ds := &panickyFill{fills: fills, key: fillKey{a.Structure, a.Threads, a.Size, a.Seed}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fill did not panic")
			}
		}()
		in.prefill(a, ds, 2*uint64(a.Size))
	}()
	select {
	case <-ds.waiter.ready:
	default:
		t.Fatal("waiter still blocked after the filling worker panicked")
	}
	if ds.waiter.img != nil {
		t.Fatal("panicked fill published an image")
	}
	if got, want := in.Run(a), RunDataStructure(a); !reflect.DeepEqual(got, want) {
		t.Fatal("point after a panicked fill diverges from a fresh run")
	}
	if hits, misses := fills.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("prefill stats = %d hits / %d misses, want 0/1", hits, misses)
	}
}

// TestRunnerDeterministicAcrossWorkerCounts: the same grid must produce
// identical results at -j 1 and -j 8 — the fleet's byte-determinism
// contract at the Runner level.
func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	a, b, c := instanceTestConfigs()
	var grid []DSConfig
	for _, base := range []DSConfig{a, b, c} {
		for _, lock := range []LockID{LockTTAS, LockMCS} {
			cfg := base
			cfg.Lock = lock
			grid = append(grid, cfg)
		}
	}

	serial := NewRunner()
	serial.Workers = 1
	wide := NewRunner()
	wide.Workers = 8
	wide.Shards = 5 // deliberately mismatched geometry

	got1 := serial.RunAll(grid)
	got8 := wide.RunAll(grid)
	if !reflect.DeepEqual(got1, got8) {
		t.Fatalf("RunAll results differ between 1 and 8 workers")
	}
}

// TestFigureDigestWorkerInvariance: a rendered figure's seed digest must be
// byte-identical at -j 1 and -j 8 (golden_test.go pins the digests at the
// default worker count; this pins the invariance itself).
func TestFigureDigestWorkerInvariance(t *testing.T) {
	sc := TestScale()
	serial := NewRunner()
	serial.Workers = 1
	wide := NewRunner()
	wide.Workers = 8

	d1 := digestTables(Figure9(serial, sc))
	d8 := digestTables(Figure9(wide, sc))
	if d1 != d8 {
		t.Fatalf("figure9 digest differs by worker count: -j1 %s, -j8 %s", d1, d8)
	}
}
