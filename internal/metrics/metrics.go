// Package metrics is a dependency-free metrics registry with Prometheus
// text exposition. The repo's go.mod has zero dependencies by design, so the
// registry hand-rolls the small subset of the Prometheus data model FedRoad
// needs: monotonic counters, callback gauges and fixed-bucket histograms,
// optionally carrying a constant label set.
//
// Counters and histograms are lock-free on the hot path (atomic CAS on
// float64 bit patterns); registration and scraping take the registry mutex.
// Registration is idempotent: asking for an existing name+labels pair
// returns the existing metric, so independent subsystems (the MPC engine,
// the query layer, an HTTP server) can share one registry without
// coordinating initialization order.
//
// The metric names exposed by the library map onto the paper's §VIII cost
// model R·(L + S/B); see DESIGN.md, "Observability".
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is a constant label set attached to a metric at registration.
type Labels map[string]string

// render produces the canonical {k="v",...} form, keys sorted, or "" for an
// empty set — the identity of a metric within its family.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing float64 value.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by v (v must be >= 0; negative adds are dropped
// to preserve monotonicity).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increases the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// bucket le=B counts observations <= B, plus a +Inf bucket, _sum and _count).
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds, excluding +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (tens); linear scan beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts by
// linear interpolation within the owning bucket — the standard Prometheus
// histogram_quantile estimate. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if cum+c >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets are the default latency buckets in seconds: 50µs .. 10s, a
// 1-2.5-5 ladder wide enough for both analytic-mode (~µs) and protocol-mode
// (~ms-s) queries.
var DefBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// metric is anything the registry can expose.
type metric interface {
	// write emits the exposition lines for one child (name already includes
	// the family name; labels the rendered constant label set).
	write(w io.Writer, name, labels string)
	// snapshot contributes flat name→value pairs (histograms contribute
	// _count and _sum).
	snapshot(dst map[string]float64, name, labels string)
}

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(c.Value()))
}

func (c *Counter) snapshot(dst map[string]float64, name, labels string) {
	dst[name+labels] = c.Value()
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	// Cumulative buckets with the le label merged into the constant labels.
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", formatFloat(b)), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

func (h *Histogram) snapshot(dst map[string]float64, name, labels string) {
	dst[name+"_count"+labels] = float64(h.Count())
	dst[name+"_sum"+labels] = h.Sum()
}

// funcMetric evaluates a callback at scrape time (gauges over external
// state, e.g. pool depth or free-list length).
type funcMetric struct {
	fn func() float64
}

func (f *funcMetric) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(f.fn()))
}

func (f *funcMetric) snapshot(dst map[string]float64, name, labels string) {
	dst[name+labels] = f.fn()
}

// mergeLabel inserts k="v" into an already-rendered label set.
func mergeLabel(labels, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatFloat renders a float the way Prometheus clients do: integral values
// without an exponent or trailing zeros.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// child is one labeled instance within a family.
type child struct {
	labels string
	m      metric
}

// family groups all children sharing a metric name (one HELP/TYPE header).
type family struct {
	name     string
	help     string
	typ      string // "counter", "gauge", "histogram"
	children []*child
}

// Registry holds metric families and serves scrapes. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, for stable exposition
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the family and the labeled child, enforcing that a
// name is never reused with a different type.
func (r *Registry) lookup(name, help, typ string, labels Labels, make func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ}
		r.families[name] = fam
		r.order = append(r.order, name)
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, fam.typ, typ))
	}
	ls := labels.render()
	for _, c := range fam.children {
		if c.labels == ls {
			return c.m
		}
	}
	m := make()
	fam.children = append(fam.children, &child{labels: ls, m: m})
	return m
}

// Counter returns the counter name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, "counter", labels, func() metric { return &Counter{} }).(*Counter)
}

// Histogram returns the histogram name+labels with the given bucket upper
// bounds (nil selects DefBuckets), creating it on first use. Buckets are
// fixed at creation; later calls with different bounds return the original.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, "histogram", labels, func() metric {
		h := &Histogram{bounds: append([]float64(nil), buckets...)}
		h.buckets = make([]atomic.Uint64, len(h.bounds)+1)
		return h
	}).(*Histogram)
}

// GaugeFunc registers a callback gauge evaluated at scrape time. Like all
// registrations it is idempotent: the first callback registered for a
// name+labels pair wins.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, "gauge", labels, func() metric { return &funcMetric{fn: fn} })
}

// CounterFunc registers a callback counter (for externally-accumulated
// monotonic values, e.g. mesh reconnect counts).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, "counter", labels, func() metric { return &funcMetric{fn: fn} })
}

// WriteText writes the registry in the Prometheus text exposition format
// (version 0.0.4), families in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		fam := r.families[name]
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.name, fam.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.typ); err != nil {
			return err
		}
		for _, c := range fam.children {
			c.m.write(w, fam.name, c.labels)
		}
	}
	return nil
}

// Snapshot returns a flat name{labels}→value map of every metric (histograms
// contribute name_count and name_sum), for folding into JSON status
// endpoints.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, name := range r.order {
		fam := r.families[name]
		for _, c := range fam.children {
			c.m.snapshot(out, fam.name, c.labels)
		}
	}
	return out
}
