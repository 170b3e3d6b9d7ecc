package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible host-time metrics, measured with tracing
// off. failed_frac is not among them: it is failed/attempted of the result
// line, and a metric whose every value is 0 has no spread to bound.
var endToEnd = []metricDef{
	{"points_per_s", "1/s"},
	{"point_ms_p50", "ms"},
	{"point_ms_p90", "ms"},
	{"setup_s", "s"},
	{"alloc_mb_per_point", "MB"},
}

// perLayer are the traced run's layer metrics, named after the internal/
// modules. A layer a workload does not exercise reads 0 on it (see
// README.md for the workload map).
var perLayer = []metricDef{
	{"htm.access_ns", "ns"},
	{"htm.accesses_per_op", "count/op"},
	{"htm.commit_ratio", "ratio"},
	{"htm.memory_setup_us", "us"},
	{"core.self_ns_per_attempt", "ns"},
	{"core.attempts_per_op", "count/op"},
	{"sim.switch_share", "ratio"},
	{"sim.switches_per_op", "count/op"},
	{"sim.machine_setup_us", "us"},
	{"locks.fallback_ratio", "ratio"},
	{"locks.aux_per_op", "count/op"},
	{"rbtree.self_ns_per_op", "ns"},
	{"hashtable.self_ns_per_op", "ns"},
	{"harness.point_setup_us", "us"},
	{"harness.prefill_us", "us"},
	{"harness.prefill_hit_rate", "ratio"},
	{"harness.run_share", "ratio"},
	{"fleet.occupancy_pct", "%"},
	{"fleet.steals", "count/batch"},
	{"modelcheck.case_setup_share", "ratio"},
	{"modelcheck.shrink_share", "ratio"},
	{"obs.observed_ratio", "ratio"},
	{"host.gc_cpu_share", "ratio"},
	{"host.allocs_per_point", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// report is one run's outcome: the checked point counts, the metric values
// and human-readable notes printed above the result line.
type report struct {
	attempted int
	failed    int
	values    map[string]float64
	notes     []string
}

func newReport() *report {
	return &report{values: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, a metric table, and the result line as the last
// line: every metric of defs by name with its unit.
func (r *report) write(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-30s %14.6g ratio (%d of %d points failed their output check)\n",
		"failed_frac", failedFrac, r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// ratio returns a/b, or 0 when b is 0 (a layer with no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
