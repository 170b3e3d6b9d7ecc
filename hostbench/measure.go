package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"elision/internal/fleet"
	"elision/internal/harness"
	"elision/internal/modelcheck"
	"elision/internal/obs/rollup"
)

const (
	// setupsPerBatch fresh set-ups are timed after each batch, and at least
	// minSetups per run; setup_s is their median.
	setupsPerBatch = 2
	minSetups      = 15
	// freshSamples is how many measured points per run are re-run on a
	// fresh harness.RunDataStructure and compared with the pooled result.
	freshSamples = 4
	// harnessTracedShare and mcTracedShare are the fractions of --seconds
	// the traced run spends on its untraced reference pass; the traced (and,
	// for harness workloads, observed) passes then repeat the same points.
	harnessTracedShare = 0.22
	mcTracedShare      = 0.45
)

// phase is one measured phase: batches run back to back until the budget
// has elapsed (at least one), each with its own fleet profile, so every
// rate and latency percentile exists per batch and the reported value is
// the median across batches — a contention burst on the host moves it only
// if it covers half the run.
type phase struct {
	rates, p50s, p90s []float64
	// setups holds the fresh set-ups timed between batches.
	setups     []float64
	occupancy  []float64
	steals     uint64
	points     int
	allocBytes uint64
	wall       time.Duration
	// host0 and host1 bracket the batch loop, after its initial GC.
	host0, host1 hostSample
}

// measure runs batch(b, prof) for b = 0, 1, ... until budget has elapsed;
// batch returns how many points it ran. When setup is non-nil,
// setupsPerBatch fresh set-ups are timed after every batch, and at least
// minSetups in all.
func measure(budget time.Duration, batch func(b int, prof *fleet.Profile) int, setup func(rep int) float64) *phase {
	ph := &phase{}
	var m0, m1 runtime.MemStats
	runtime.GC()
	ph.host0 = readHost()
	start := time.Now()
	for b := 0; b == 0 || time.Since(start) < budget; b++ {
		prof := fleet.NewProfile()
		runtime.ReadMemStats(&m0)
		t := time.Now()
		n := batch(b, prof)
		dt := time.Since(t)
		runtime.ReadMemStats(&m1)
		ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		ph.points += n
		ph.rates = append(ph.rates, float64(n)/dt.Seconds())
		lat := jobMillis(prof)
		ph.p50s = append(ph.p50s, quantile(lat, 0.5))
		ph.p90s = append(ph.p90s, quantile(lat, 0.9))
		_, occ := prof.Occupancy()
		ph.occupancy = append(ph.occupancy, occ)
		ph.steals += prof.Steals()
		for i := 0; setup != nil && i < setupsPerBatch; i++ {
			ph.setups = append(ph.setups, setup(len(ph.setups)))
		}
	}
	ph.wall = time.Since(start)
	ph.host1 = readHost()
	for r := len(ph.setups); setup != nil && r < minSetups; r++ {
		ph.setups = append(ph.setups, setup(r))
	}
	return ph
}

// newRunner returns a fresh two-worker runner.
func newRunner() *harness.Runner {
	run := harness.NewRunner()
	run.Workers = workers
	return run
}

// harnessSetup times one fresh workload start: input generation, Runner
// construction (empty instance pool and prefill cache) and the fleet up to
// its first completed point.
func harnessSetup(w *harnessWorkload, seed uint64, rep int) float64 {
	t0 := time.Now()
	cfgs := w.batch(seed, setupBatchBase+rep)
	run := newRunner()
	var first atomic.Int64
	run.Progress = func(done, _ int) {
		if done == 1 {
			first.Store(time.Since(t0).Nanoseconds())
		}
	}
	run.RunAll(cfgs[:workers])
	return float64(first.Load()) / 1e9
}

// mcSetup times one fresh modelcheck campaign start up to its first
// completed case, on a campaign of one case per worker.
func mcSetup(seed uint64, rep int) float64 {
	t0 := time.Now()
	cfg := campaignConfig(seed, setupBatchBase+rep)
	cfg.Schemes = modelcheck.RealSchemes()[:1]
	cfg.Locks = modelcheck.RealLocks()[:workers]
	cfg.Seeds = 1
	var first atomic.Int64
	cfg.Progress = func(done, _ int) {
		if done == 1 {
			first.Store(time.Since(t0).Nanoseconds())
		}
	}
	modelcheck.RunCampaign(cfg)
	return float64(first.Load()) / 1e9
}

// jobMillis returns every profiled job's host latency in ms.
func jobMillis(prof *fleet.Profile) []float64 {
	ev := prof.Events()
	out := make([]float64, len(ev))
	for i, e := range ev {
		out[i] = float64(e.End-e.Start) / 1e6
	}
	return out
}

// endToEndValues fills the end-to-end metrics from a measured phase.
func endToEndValues(rep *report, ph *phase) {
	v := rep.values
	v["points_per_s"] = quantile(ph.rates, 0.5)
	v["point_ms_p50"] = quantile(ph.p50s, 0.5)
	v["point_ms_p90"] = quantile(ph.p90s, 0.5)
	v["setup_s"] = quantile(ph.setups, 0.5)
	v["alloc_mb_per_point"] = float64(ph.allocBytes) / 1e6 / float64(ph.points)
	n := len(ph.rates)
	rep.notef("%d points in %d batches of %d (each batch leaves %d points beyond its p90); medians across batches:",
		ph.points, n, ph.points/n, ph.points/n-int(math.Ceil(0.9*float64(ph.points/n))))
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"points_per_s", ph.rates}, {"point_ms_p50", ph.p50s}, {"point_ms_p90", ph.p90s}, {"setup_s", ph.setups}} {
		rep.notef("  %-14s q1 %.6g  median %.6g  q3 %.6g  (n=%d)", q.name,
			quantile(q.xs, 0.25), quantile(q.xs, 0.5), quantile(q.xs, 0.75), len(q.xs))
	}
}

// checkHarness applies the output checks to a measured harness pass: the
// pinned digests of batch 0 for the default seed, and a seeded sample of
// points re-run fresh. It returns the indices of failed points.
func checkHarness(w *harnessWorkload, seed uint64, cfgs []harness.DSConfig, res []harness.Result, rep *report) map[int]bool {
	bad := map[int]bool{}
	if seed == defaultSeed {
		pins := pinnedDigests[w.name]
		n := len(w.batch(seed, 0))
		if len(pins) != n {
			rep.notef("check: %d pinned digests for a %d-point batch", len(pins), n)
			for i := 0; i < n; i++ {
				bad[i] = true
			}
		}
		for i := 0; i < n && i < len(pins); i++ {
			if got := digest(res[i].Stats, res[i].Cycles); got != pins[i] {
				rep.notef("check: point %d digest %016x, pinned %016x", i, got, pins[i])
				bad[i] = true
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for k := 0; k < freshSamples; k++ {
		i := rng.Intn(len(res))
		fresh, err := freshRun(cfgs[i])
		if err != nil {
			rep.notef("check: fresh run of point %d: %v", i, err)
			bad[i] = true
			continue
		}
		if digest(fresh.Stats, fresh.Cycles) != digest(res[i].Stats, res[i].Cycles) {
			rep.notef("check: point %d pooled result differs from a fresh run", i)
			bad[i] = true
		}
	}
	return bad
}

// freshRun runs one point on a throwaway instance, reporting a panic as an
// error.
func freshRun(cfg harness.DSConfig) (res harness.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return harness.RunDataStructure(cfg), nil
}

// runHarness is the untraced run of a harness workload.
func runHarness(w *harnessWorkload, seed uint64, seconds float64) *report {
	rep := newReport()
	run := newRunner()
	var cfgs []harness.DSConfig
	var res []harness.Result
	ph := measure(secondsDuration(seconds), func(b int, prof *fleet.Profile) int {
		batch := w.batch(seed, b)
		run.Profile = prof
		res = append(res, run.RunAll(batch)...)
		cfgs = append(cfgs, batch...)
		return len(batch)
	}, func(r int) float64 { return harnessSetup(w, seed, r) })
	endToEndValues(rep, ph)
	rep.attempted = len(res)
	rep.failed = len(checkHarness(w, seed, cfgs, res, rep))
	return rep
}

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func flatten(batches [][]harness.DSConfig) []harness.DSConfig {
	var out []harness.DSConfig
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// hostSample is a point-in-time reading of the Go runtime's own cost.
type hostSample struct {
	gcCPU, totalCPU float64
	mallocs         uint64
}

func readHost() hostSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{s[0].Value.Float64(), s[1].Value.Float64(), ms.Mallocs}
}

// hostValues fills the host.* and fleet.* metrics from an untraced pass.
func hostValues(rep *report, ph *phase) {
	v := rep.values
	h0, h1 := ph.host0, ph.host1
	v["host.gc_cpu_share"] = ratio(h1.gcCPU-h0.gcCPU, h1.totalCPU-h0.totalCPU)
	v["host.allocs_per_point"] = ratio(float64(h1.mallocs-h0.mallocs), float64(ph.points))
	occ := 0.0
	for _, o := range ph.occupancy {
		occ += o
	}
	v["fleet.occupancy_pct"] = 100 * occ / float64(len(ph.occupancy))
	v["fleet.steals"] = float64(ph.steals) / float64(len(ph.occupancy))
}

// traceHarness is the traced run of a harness workload: an untraced
// reference pass, the same points through the traced instances, and again
// with the observability rollup attached.
func traceHarness(w *harnessWorkload, seed uint64, seconds float64) (*report, error) {
	rep := newReport()
	run := newRunner()
	var batches [][]harness.DSConfig
	var res []harness.Result
	ph := measure(secondsDuration(harnessTracedShare*seconds), func(b int, prof *fleet.Profile) int {
		batch := w.batch(seed, b)
		run.Profile = prof
		res = append(res, run.RunAll(batch)...)
		batches = append(batches, batch)
		return len(batch)
	}, nil)
	hostValues(rep, ph)
	untraced := ph.wall
	hits, misses := run.PrefillStats()

	t := time.Now()
	traced, led, err := tracedPass(batches)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t)

	observer := harness.NewRunner()
	observer.Workers = workers
	observer.Flight = true
	ru := rollup.New()
	var observed []harness.Result
	t = time.Now()
	for _, cfgs := range batches {
		observed = append(observed, observer.RunAllRollup(cfgs, ru)...)
	}
	observedWall := time.Since(t)

	cfgs := flatten(batches)
	bad := checkHarness(w, seed, cfgs, res, rep)
	i := 0
	for _, b := range traced {
		for _, r := range b {
			if digest(r.Stats, r.Cycles) != digest(res[i].Stats, res[i].Cycles) {
				rep.notef("check: point %d traced result differs from the untraced run", i)
				bad[i] = true
			}
			if digest(observed[i].Stats, observed[i].Cycles) != digest(res[i].Stats, res[i].Cycles) {
				rep.notef("check: point %d observed result differs from the untraced run", i)
				bad[i] = true
			}
			i++
		}
	}
	rep.attempted = len(res)
	rep.failed = len(bad)

	st := led.stats
	ops := float64(st.Ops)
	v := rep.values
	v["htm.access_ns"] = ratio(float64(led.self[spanAccess]), float64(led.accesses))
	v["htm.accesses_per_op"] = ratio(float64(led.accesses), ops)
	v["htm.commit_ratio"] = ratio(float64(st.Spec), float64(st.Spec+st.Aborts))
	v["htm.memory_setup_us"] = ratio(float64(led.memoryNs)/1e3, float64(led.points))
	v["core.self_ns_per_attempt"] = ratio(float64(led.self[spanCritical]), float64(st.Attempts))
	v["core.attempts_per_op"] = ratio(float64(st.Attempts), ops)
	v["sim.switch_share"] = ratio(float64(led.handoffNs), float64(led.runNs))
	v["sim.switches_per_op"] = ratio(float64(led.switches), ops)
	v["sim.machine_setup_us"] = ratio(float64(led.machineNs)/1e3, float64(led.points))
	v["locks.fallback_ratio"] = ratio(float64(st.NonSpec), ops)
	v["locks.aux_per_op"] = ratio(float64(st.AuxAcquires), ops)
	v["rbtree.self_ns_per_op"] = ratio(float64(led.dsSelf[harness.StructTree]), float64(led.dsOps[harness.StructTree]))
	v["hashtable.self_ns_per_op"] = ratio(float64(led.dsSelf[harness.StructHash]), float64(led.dsOps[harness.StructHash]))
	v["harness.point_setup_us"] = ratio(float64(led.setupNs)/1e3, float64(led.points))
	v["harness.prefill_us"] = ratio(float64(led.prefillNs)/1e3, float64(led.points))
	v["harness.prefill_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	v["harness.run_share"] = ratio(float64(led.runNs), float64(led.pointNs))
	v["modelcheck.case_setup_share"] = 0
	v["modelcheck.shrink_share"] = 0
	v["obs.observed_ratio"] = observedWall.Seconds() / untraced.Seconds()
	v["bench.trace_overhead_ratio"] = tracedWall.Seconds() / untraced.Seconds()
	rep.notef("traced %d points in %d batches; untraced %.3fs, traced %.3fs, observed %.3fs; prefill %d hits / %d misses",
		len(res), len(batches), untraced.Seconds(), tracedWall.Seconds(), observedWall.Seconds(), hits, misses)
	perPoint := func(ns int64) float64 { return ratio(float64(ns)/1e3, float64(led.points)) }
	rep.notef("point set-up split (us/point): machine %.4g, memory %.4g, structure %.4g, prefill %.4g, lock+scheme+bodies %.4g",
		perPoint(led.machineNs), perPoint(led.memoryNs), perPoint(led.structNs), perPoint(led.prefillNs), perPoint(led.wireNs))
	rep.notef("run time split: handoff %.1f%%, core self %.1f%%, structure self %.1f%%, access self %.1f%%, op loop %.1f%%",
		100*ratio(float64(led.handoffNs), float64(led.runNs)),
		100*ratio(float64(led.self[spanCritical]), float64(led.runNs)),
		100*ratio(float64(led.dsSelf[harness.StructTree]+led.dsSelf[harness.StructHash]), float64(led.runNs)),
		100*ratio(float64(led.self[spanAccess]), float64(led.runNs)),
		100*ratio(float64(led.loopNs), float64(led.runNs)))
	return rep, nil
}

// summaryDigest is the SHA-256 of a campaign Summary's JSON, which holds no
// wall times.
func summaryDigest(s modelcheck.Summary) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Summary is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// campaignBatch returns a measure batch that runs campaign round b and
// appends its Summary to sums.
func campaignBatch(seed uint64, sums *[]modelcheck.Summary) func(b int, prof *fleet.Profile) int {
	return func(b int, prof *fleet.Profile) int {
		cfg := campaignConfig(seed, b)
		cfg.Profile = prof
		sum := modelcheck.RunCampaign(cfg)
		*sums = append(*sums, sum)
		return sum.TotalCases
	}
}

// checkCampaigns applies the modelcheck output checks and returns the
// number of failed cases: every case of a campaign whose verdict is not ok
// or (default seed, round 0) whose Summary differs from the pinned one, and
// every case of a sampled combination whose campaign sums differ from its
// cases re-run one by one with modelcheck.Run.
func checkCampaigns(seed uint64, sums []modelcheck.Summary, rep *report) int {
	failed := 0
	for r, s := range sums {
		switch {
		case s.Verdict != "ok":
			rep.notef("check: campaign %d verdict %q (%d unexpected violations)", r, s.Verdict, s.TotalUnexpected)
			failed += s.TotalCases
		case r == 0 && seed == defaultSeed && summaryDigest(s) != pinnedSummarySHA256:
			rep.notef("check: campaign 0 Summary %s, pinned %s", summaryDigest(s), pinnedSummarySHA256)
			failed += s.TotalCases
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	combo := rng.Intn(len(sums[0].Combos))
	want := sums[0].Combos[combo]
	got := modelcheck.ComboSummary{Scheme: want.Scheme, Lock: want.Lock}
	for i := 0; i < sums[0].SeedsPerCombo; i++ {
		r := modelcheck.Run(modelcheck.GenCase(want.Scheme, want.Lock, comboSeed(sums[0].SeedBase, combo, i)))
		got.Cases++
		got.Violations += len(r.Violations)
		got.ExpectedViolations += r.Expected()
		got.Ops += r.Stats.Ops
		got.SpecOps += r.Stats.Spec
		got.Fallbacks += r.Stats.NonSpec
		got.Aborts += r.Stats.Aborts
		if r.Deadlock {
			got.Deadlocks++
		}
	}
	if got != want {
		rep.notef("check: combo %s/%s re-run case by case gives %+v, campaign %+v", want.Scheme, want.Lock, got, want)
		failed += want.Cases
	}
	return failed
}

// runModelcheck is the untraced run of the modelcheck workload.
func runModelcheck(seed uint64, seconds float64) *report {
	rep := newReport()
	var sums []modelcheck.Summary
	ph := measure(secondsDuration(seconds), campaignBatch(seed, &sums), func(r int) float64 { return mcSetup(seed, r) })
	endToEndValues(rep, ph)
	rep.attempted = ph.points
	rep.failed = checkCampaigns(seed, sums, rep)
	return rep
}

// traceModelcheck is the traced run of the modelcheck workload: untraced
// RunCampaign rounds, then the same rounds case by case with the
// timestamping SchemeBuilder.
func traceModelcheck(seed uint64, seconds float64) *report {
	rep := newReport()
	var sums []modelcheck.Summary
	ph := measure(secondsDuration(mcTracedShare*seconds), campaignBatch(seed, &sums), nil)
	untraced, cases := ph.wall, ph.points

	led := &mcLedger{}
	var traced []modelcheck.Summary
	t := time.Now()
	for r := range sums {
		s, l := tracedCampaign(campaignConfig(seed, r))
		traced = append(traced, s)
		led.merge(l)
	}
	tracedWall := time.Since(t)

	var sample []modelcheck.Case
	for combo, cs := range sums[0].Combos {
		sample = append(sample, modelcheck.GenCase(cs.Scheme, cs.Lock, comboSeed(sums[0].SeedBase, combo, 0)))
	}
	if err := timeConstructors(sample, led); err != nil {
		rep.notef("check: constructor timing: %v", err)
		rep.failed++
	}

	rep.attempted = cases
	rep.failed += checkCampaigns(seed, sums, rep)
	for r := range sums {
		if !sameCampaign(traced[r], sums[r]) {
			rep.notef("check: traced campaign %d differs from RunCampaign's Summary", r)
			rep.failed += sums[r].TotalCases
		}
	}

	st := led.stats
	ops := float64(st.Ops)
	v := rep.values
	for _, d := range perLayer {
		v[d.name] = 0
	}
	hostValues(rep, ph)
	v["htm.commit_ratio"] = ratio(float64(st.Spec), float64(st.Spec+st.Aborts))
	v["htm.memory_setup_us"] = ratio(float64(led.memoryNs)/1e3, float64(led.fresh))
	v["core.attempts_per_op"] = ratio(float64(st.Attempts), ops)
	v["sim.machine_setup_us"] = ratio(float64(led.machineNs)/1e3, float64(led.fresh))
	v["locks.fallback_ratio"] = ratio(float64(st.NonSpec), ops)
	v["locks.aux_per_op"] = ratio(float64(st.AuxAcquires), ops)
	v["modelcheck.case_setup_share"] = ratio(float64(led.setupNs), float64(led.caseNs))
	v["modelcheck.shrink_share"] = ratio(float64(led.shrinkNs), float64(led.caseNs))
	v["bench.trace_overhead_ratio"] = tracedWall.Seconds() / untraced.Seconds()
	rep.notef("traced %d cases in %d campaigns (%d shrunk); untraced %.3fs, traced %.3fs",
		cases, len(sums), led.shrunk, untraced.Seconds(), tracedWall.Seconds())
	return rep
}
