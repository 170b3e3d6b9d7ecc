package harness

// Golden seed-digest tests. Each figure regenerator is run at TestScale and
// its rendered CSV output hashed; the hex digests below pin the exact
// simulated results. Any change to simulator internals that perturbs a run
// by even one bit — a reordered conflict, a different abort cause, one
// extra cycle — changes a digest and fails here. Performance work on the
// scheduler, the HTM set representation, or the memory model must keep
// these digests bit-identical; only deliberate model changes may re-pin
// them (regenerate with -run TestGoldenFigureDigests -v and copy the
// printed digests).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"elision/internal/stamp"
)

// digestTables hashes the CSV rendering of a table set. CSV is the
// canonical form: it contains every cell the text rendering does, without
// alignment padding.
func digestTables(tabs []Table) string {
	var sb strings.Builder
	for i := range tabs {
		tabs[i].RenderCSV(&sb)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// digestTimeline hashes the §4 lemming timelines for TTAS and MCS.
func digestTimeline(sc Scale) string {
	h := sha256.New()
	for _, lock := range []LockID{LockTTAS, LockMCS} {
		fmt.Fprintln(h, LemmingTimeline(sc, lock))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFigureDigests pins every figure's TestScale results.
var goldenFigureDigests = map[string]string{
	"figure2":   "7c5a7cc000de1429955a3d663d8d95046233476b84fbfe231fa3b6cb431eb571",
	"figure3":   "1af9d05c6f40f9f028a26ce89365efc437f9e0f8a03bac704758fff44c29ddb2",
	"figure4":   "ad78937362013dc8931cefd2992f293b49a768dda3577c657f0b16aede80d632",
	"figure9":   "f74e23a812b68c26140bae1e3bb8c0a97354f818043e0b396adb66577dfa7049",
	"figure10":  "2a1ef0c70c0b290c928bf88f94e642350537a61f006c0a515e8b6b81edb888ba",
	"figure11":  "86750485274679f0a5ddc4aa07eb9a96a211741de29744a19863a909aac02e01",
	"hashtable": "3d3ebf53041209825365387d7e747a85c9dbf27b5af1cd80c33f551bef5765e8",

	"analysis":    "7ca15ca70839914655e54c854204d42f2153bfefe270a1d046b0b553b0d69db1",
	"figure9-smt": "adc85a9af93ca67f37052343afdd6a5053074b32843eb9bc7b6fbdacce808bc4",
	"scm-groups":  "992cb98f9d69e5ce6e2d805fcdab42fe394f882acb32a78b68883ca1e2087d49",
	"finegrained": "be86e4be1a2284ccf1a3499c9f031aa00520f10be7ee1ba4c333ab80de27727d",
	"fairness":    "008d14de46e107c1d9b93937eb213e8fbf65dee1e993e3506787a4e963927774",
	"sensitivity": "e73191ab5f7d0355f075a44c1e65e6f9990df68b53858ca044e80c2fb8460a6e",
	"fairlocks":   "aa05eb5a7bf973c2790d381b1190b934fd4ac735cf5e29b6e23ca7583033c01f",

	// timeline pins the text of LemmingTimeline for TTAS then MCS, each
	// followed by a newline (cmd/reproduce's results/timeline.txt).
	"timeline": "95d9349cf0e39c7b93baebdce2039ee72a342d2d72c9ef210e5d4538e89374ec",
}

func TestGoldenFigureDigests(t *testing.T) {
	sc := TestScale()
	r := NewRunner()
	figs := []struct {
		name string
		run  func(t *testing.T) []Table
	}{
		{"figure2", func(t *testing.T) []Table { return Figure2(r, sc) }},
		{"figure3", func(t *testing.T) []Table { return Figure3(r, sc) }},
		{"figure4", func(t *testing.T) []Table { return Figure4(r, sc) }},
		{"figure9", func(t *testing.T) []Table { return Figure9(r, sc) }},
		{"figure10", func(t *testing.T) []Table { return Figure10(r, sc) }},
		{"figure11", func(t *testing.T) []Table {
			tabs, err := Figure11(TestStampScale(), 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			return tabs
		}},
		{"hashtable", func(t *testing.T) []Table { return HashTableComparison(r, sc) }},
		{"analysis", func(t *testing.T) []Table { return AnalysisTables(r, sc) }},
		{"figure9-smt", func(t *testing.T) []Table { return SMTFigure9(r, sc, 4) }},
		{"scm-groups", func(t *testing.T) []Table { return GroupedSCMAblation(r, sc) }},
		{"finegrained", func(t *testing.T) []Table { return FineGrainedComparison(sc) }},
		{"fairness", func(t *testing.T) []Table { return FairnessComparison(sc) }},
		{"sensitivity", func(t *testing.T) []Table { return CostSensitivity(sc) }},
		{"fairlocks", func(t *testing.T) []Table { return FairLockLemming(r, sc) }},
		{"timeline", nil}, // text, not tables: see digestTimeline
	}
	for _, f := range figs {
		f := f
		t.Run(f.name, func(t *testing.T) {
			var got string
			if f.run != nil {
				got = digestTables(f.run(t))
			} else {
				got = digestTimeline(sc)
			}
			t.Logf("digest %s: %s", f.name, got)
			want, ok := goldenFigureDigests[f.name]
			if !ok {
				t.Fatalf("no golden digest entry for %s", f.name)
			}
			if got != want {
				t.Errorf("%s digest = %s, want %s\n"+
					"(simulated results changed; if the model change is deliberate, re-pin goldenFigureDigests)",
					f.name, got, want)
			}
		})
	}
}

// TestSimFingerprints pins the simulated work of single points that span
// the lemming, SLR, SCM, SMT and STAMP code paths and every registered
// scheme's control flow (grouped SCM, the adaptive family, lazysub under the
// hardware fix): the virtual cycles covered and the transaction attempts
// made. Like the figure digests, a host-time change must leave them exact.
func TestSimFingerprints(t *testing.T) {
	base := DSConfig{
		Threads: 8, Size: 128, Mix: MixModerate,
		BudgetCycles: 400_000, Seed: 42, Quantum: 128,
	}
	point := func(st Structure, scheme SchemeID, lock LockID, cores int) func(*testing.T) (uint64, uint64) {
		cfg := base
		cfg.Structure, cfg.Scheme, cfg.Lock, cfg.Cores = st, scheme, lock, cores
		return func(*testing.T) (uint64, uint64) {
			r := RunDataStructure(cfg)
			return r.Cycles, r.Stats.Attempts
		}
	}
	hwfix := func(st Structure, scheme SchemeID, lock LockID) func(*testing.T) (uint64, uint64) {
		cfg := base
		cfg.Structure, cfg.Scheme, cfg.Lock, cfg.HWFix = st, scheme, lock, true
		return func(*testing.T) (uint64, uint64) {
			r := RunDataStructure(cfg)
			return r.Cycles, r.Stats.Attempts
		}
	}
	cases := []struct {
		name             string
		run              func(*testing.T) (uint64, uint64)
		cycles, attempts uint64
	}{
		{"rbtree-hle-mcs-8t", point(StructTree, SchemeHLE, LockMCS, 0), 402592, 2436},
		{"rbtree-optslr-mcs-8t", point(StructTree, SchemeOptSLR, LockMCS, 0), 401932, 11937},
		{"hash-hlescm-ttas-8t", point(StructHash, SchemeHLESCM, LockTTAS, 0), 400140, 27094},
		{"rbtree-hleretries-mcs-8t-smt4", point(StructTree, SchemeHLERetries, LockMCS, 4), 400972, 7518},
		{"hash-slrscm-mcs-8t", point(StructHash, SchemeSLRSCM, LockMCS, 0), 400132, 27829},
		{"rbtree-hlescmgrouped-ttas-8t", point(StructTree, SchemeHLESCMGrouped, LockTTAS, 0), 401452, 8623},
		{"hash-slrscmgrouped-mcs-8t", point(StructHash, SchemeSLRSCMGrouped, LockMCS, 0), 400108, 28102},
		{"rbtree-adaptivehle-mcs-8t", point(StructTree, SchemeAdaptiveHLE, LockMCS, 0), 400880, 10892},
		{"hash-adaptiveslr-ttas-8t", point(StructHash, SchemeAdaptiveSLR, LockTTAS, 0), 400444, 28114},
		{"rbtree-lazysub-hwfix-mcs-8t", hwfix(StructTree, SchemeLazySub, LockMCS), 401672, 3221},
		{"stamp-kmeans-high-8t", func(t *testing.T) (uint64, uint64) {
			r, err := stamp.Run(stamp.Config{
				App: "kmeans-high", Scheme: "hle-scm", Lock: "ttas",
				Threads: 8, Factor: 1, Seed: 42, Quantum: 128,
			})
			if err != nil {
				t.Fatal(err)
			}
			return r.Cycles, r.Stats.Attempts
		}, 323208, 1984},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cycles, attempts := c.run(t)
			if cycles != c.cycles || attempts != c.attempts {
				t.Errorf("cycles/attempts = %d/%d, want %d/%d", cycles, attempts, c.cycles, c.attempts)
			}
		})
	}
}
