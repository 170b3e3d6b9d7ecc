// Package obs is the simulator's observability layer: a metrics registry
// (counters, gauges and log-scale histograms keyed by scheme/lock labels),
// a conflict hot-line profiler that attributes aborts to cache lines, a
// windowed time-series recorder, a swimlane event tracer, and exporters
// (text/CSV dumps plus Chrome/Perfetto trace-event JSON built from the
// tracer's events).
//
// The package sits below htm and core in the dependency order — it imports
// only the standard library — so the transactional memory and the
// execution schemes can feed it directly. All metric types
// are safe for concurrent use (atomic fields, a mutex only on registration
// and aggregation paths), so instrumented runs pass the race detector even
// when multiple simulated machines run on separate host goroutines.
//
// Invariants: the instrumentation only reads the simulation — a nil
// *Collector is a valid no-op sink — so an observed run's simulated
// results are bit-identical to an unobserved one (asserted by
// harness.TestObservedRunMatchesUnobserved).
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// Labels is an ordered set of metric dimensions. The zero value (nil) means
// an unlabelled metric.
type Labels []Label

// L builds a Labels from alternating key, value strings.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("obs: L requires an even number of arguments")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// With returns a copy of ls extended with one more label.
func (ls Labels) With(key, value string) Labels {
	out := make(Labels, len(ls), len(ls)+1)
	copy(out, ls)
	return append(out, Label{Key: key, Value: value})
}

// String renders the labels as "k=v,k=v" (empty for no labels).
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can move both ways (threads, cycles covered, queue
// depths).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the bucket count of a log-scale histogram: bucket 0 holds
// exact zeros and bucket i (1..64) holds values v with bits.Len64(v) == i,
// i.e. v in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a log2-bucketed histogram of uint64 samples — two cycles of
// cost per Observe, yet enough resolution to separate a 200-cycle
// speculative critical section from a 20k-cycle serialized one.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest sample (0 if none).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Mean returns the average sample (0 if none).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// upper edge of the first bucket whose cumulative count reaches q. The
// log-scale buckets make this exact to within a factor of two.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	need := uint64(q * float64(n))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= need {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.Max()
}

// metricKey identifies one metric instance in a registry.
type metricKey struct {
	name   string
	labels string
}

// Registry holds named, labelled metrics. Metric handles are created on
// first use and live for the registry's lifetime; the registry mutex guards
// only the lookup maps, never the hot update paths.
type Registry struct {
	mu       sync.Mutex
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
		hists:    make(map[metricKey]*Histogram),
	}
}

// Counter returns the counter with the given name and labels, creating it
// on first use.
func (r *Registry) Counter(name string, ls Labels) *Counter {
	k := metricKey{name, ls.String()}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, ls Labels) *Gauge {
	k := metricKey{name, ls.String()}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram with the given name and labels, creating
// it on first use.
func (r *Registry) Histogram(name string, ls Labels) *Histogram {
	k := metricKey{name, ls.String()}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// row is one dump line, assembled under the registry lock and rendered
// outside it.
type row struct {
	kind   string
	name   string
	labels string
	// value is the counter/gauge reading; histogram rows use the stat fields.
	value           int64
	count, sum, max uint64
	mean            float64
	p50, p99, p999  uint64
}

// rows snapshots every metric, sorted by (kind, name, labels) for stable
// output.
func (r *Registry) rows() []row {
	r.mu.Lock()
	out := make([]row, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k, c := range r.counters {
		out = append(out, row{kind: "counter", name: k.name, labels: k.labels, value: int64(c.Value())})
	}
	for k, g := range r.gauges {
		out = append(out, row{kind: "gauge", name: k.name, labels: k.labels, value: g.Value()})
	}
	for k, h := range r.hists {
		out = append(out, row{
			kind: "histogram", name: k.name, labels: k.labels,
			count: h.Count(), sum: h.Sum(), max: h.Max(),
			mean: h.Mean(), p50: h.Quantile(0.50), p99: h.Quantile(0.99),
			p999: h.Quantile(0.999),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		if out[i].labels != out[j].labels {
			return out[i].labels < out[j].labels
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// render formats a metric identity as name{labels}.
func (ro row) ident() string {
	if ro.labels == "" {
		return ro.name
	}
	return ro.name + "{" + ro.labels + "}"
}

// WriteText dumps every metric as one aligned line per instance.
func (r *Registry) WriteText(w io.Writer) {
	for _, ro := range r.rows() {
		switch ro.kind {
		case "histogram":
			fmt.Fprintf(w, "%-9s %-60s count=%d mean=%.1f p50<=%d p99<=%d p999<=%d max=%d\n",
				ro.kind, ro.ident(), ro.count, ro.mean, ro.p50, ro.p99, ro.p999, ro.max)
		default:
			fmt.Fprintf(w, "%-9s %-60s %d\n", ro.kind, ro.ident(), ro.value)
		}
	}
}

// csvField quotes a field per RFC 4180: wrap in double quotes and double any
// embedded quote. Go's %q verb escapes with backslashes, which a conforming
// CSV reader (encoding/csv included) does not undo — so label values holding
// quotes would not round-trip; this does.
func csvField(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteCSV dumps every metric with a fixed header so downstream tooling can
// join runs. The labels column is RFC 4180-quoted so values containing
// commas or quotes round-trip through standard CSV readers.
func (r *Registry) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "kind,name,labels,value,count,sum,mean,p50,p99,p999,max")
	for _, ro := range r.rows() {
		switch ro.kind {
		case "histogram":
			fmt.Fprintf(w, "%s,%s,%s,,%d,%d,%.2f,%d,%d,%d,%d\n",
				ro.kind, ro.name, csvField(ro.labels), ro.count, ro.sum, ro.mean, ro.p50, ro.p99, ro.p999, ro.max)
		default:
			fmt.Fprintf(w, "%s,%s,%s,%d,,,,,,,\n", ro.kind, ro.name, csvField(ro.labels), ro.value)
		}
	}
}
