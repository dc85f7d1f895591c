package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the metrics half of the observability layer: a registry of
// counters, gauges and fixed-bucket histograms rendered in the Prometheus
// text exposition format (version 0.0.4 — what every Prometheus-compatible
// scraper speaks). Metrics are identified by (name, sorted label set);
// registering the same identity twice returns the same instance, so hot
// paths may re-resolve by name without duplicating series.

// Label is one name=value metric dimension.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L builds a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter (negative deltas are ignored — counters only
// go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed upper-bound buckets and tracks
// their sum — the Prometheus histogram shape, from which scrapers derive
// quantiles and rates.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit

	mu     sync.Mutex
	counts []uint64 // per-bucket (len(bounds)+1, last = +Inf overflow)
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Sum returns the total of every observed value.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// snapshot returns (cumulative bucket counts, sum, count).
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.count
}

// LogBuckets returns upper bounds spaced evenly in log scale: perDecade
// bounds per power of ten, from min up to and including the first bound
// >= max. LogBuckets(1e-4, 10, 3) is the canonical duration ladder:
// 100µs, 215µs, 464µs, 1ms, ... 10s.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade < 1 {
		panic("obs: bad LogBuckets parameters")
	}
	var out []float64
	for i := 0; ; i++ {
		b := min * math.Pow(10, float64(i)/float64(perDecade))
		out = append(out, b)
		if b >= max*(1-1e-9) {
			return out
		}
	}
}

// DurationBuckets is the default histogram ladder for request and stage
// durations in seconds: 100µs to ~100s, three buckets per decade.
func DurationBuckets() []float64 { return LogBuckets(1e-4, 100, 3) }

// metric is one registered series: exactly one of the value fields is used
// depending on the family type.
type metric struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // scrape-time callback (counter or gauge family)
}

// family is every series sharing one metric name.
type family struct {
	name, help, typ string
	metrics         map[string]*metric // label signature -> series
	order           []string
}

// Registry holds metric families and renders them for scraping. All methods
// are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var (
	defaultReg     *Registry
	defaultRegOnce sync.Once
)

// DefaultRegistry is the process-wide registry the instrumented packages
// and the /metrics endpoint share.
func DefaultRegistry() *Registry {
	defaultRegOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

// appendSignature appends the canonical identity of a name-sorted label set.
func appendSignature(dst []byte, sorted []Label) []byte {
	for _, l := range sorted {
		dst = append(dst, l.Name...)
		dst = append(dst, '=')
		dst = append(dst, l.Value...)
		dst = append(dst, ',')
	}
	return dst
}

// series resolves (or creates) the family and series for one identity, then
// runs init on it while still holding the registry lock — the only place a
// metric's value fields may be written, so two goroutines racing to create
// the same series always observe one fully-initialized instance. The family
// type must match across calls; a mismatch panics — it is a programming
// error, caught by the first scrape in any test.
//
// Hot paths re-resolve by name on every event (two series per HTTP request),
// so finding an existing series allocates nothing: the labels are sorted and
// signed in stack buffers (up to 8 labels, 128 signature bytes — beyond that
// the appends spill to the heap and the result is the same), and the map is
// probed with the bytes.
func (r *Registry) series(name, help, typ string, labels []Label, init func(*metric)) *metric {
	var lbuf [8]Label
	sorted := append(lbuf[:0], labels...)
	slices.SortStableFunc(sorted, func(a, b Label) int { return strings.Compare(a.Name, b.Name) })
	var sbuf [128]byte
	sig := appendSignature(sbuf[:0], sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, metrics: map[string]*metric{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	m := f.metrics[string(sig)]
	if m == nil {
		m = &metric{labels: slices.Clone(sorted)}
		f.metrics[string(sig)] = m
		f.order = append(f.order, string(sig))
	}
	init(m)
	return m
}

// Counter returns the counter series for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.series(name, help, "counter", labels, func(m *metric) {
		if m.c == nil {
			m.c = &Counter{}
		}
	}).c
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.series(name, help, "gauge", labels, func(m *metric) {
		if m.g == nil {
			m.g = &Gauge{}
		}
	}).g
}

// Histogram returns the histogram series for (name, labels). buckets are
// ascending upper bounds (nil = DurationBuckets); the first registration of
// a series fixes them.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.series(name, help, "histogram", labels, func(m *metric) {
		if m.h == nil {
			b := buckets
			if b == nil {
				b = DurationBuckets()
			}
			m.h = &Histogram{bounds: append([]float64(nil), b...), counts: make([]uint64, len(b)+1)}
		}
	}).h
}

// CounterFunc registers a scrape-time callback rendered as a counter — the
// bridge for counters owned elsewhere (client stats, store and artifact
// caches) so one scrape sees everything without double bookkeeping.
// Re-registering an identity replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.series(name, help, "counter", labels, func(m *metric) { m.fn = fn })
}

// GaugeFunc registers a scrape-time callback rendered as a gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.series(name, help, "gauge", labels, func(m *metric) { m.fn = fn })
}

// SeriesSnapshot is one rendered series of a Snapshot.
type SeriesSnapshot struct {
	Labels []Label
	Value  float64 // counter / gauge value, histogram sum
	Count  uint64  // histogram observation count
}

// FamilySnapshot is one metric family of a Snapshot.
type FamilySnapshot struct {
	Name, Help, Type string
	Series           []SeriesSnapshot
}

// famCopy is a point-in-time copy of one family taken under the registry
// lock: the metric structs are copied by value so later registrations (new
// series appended to order, replaced fn callbacks) cannot race with
// rendering. The Counter/Gauge/Histogram pointers inside stay shared — they
// synchronize themselves.
type famCopy struct {
	name, help, typ string
	metrics         []metric
}

// copyFamilies snapshots every family sorted by name. Rendering happens on
// the copy, outside the lock, so scrape-time fn callbacks never run with the
// registry lock held.
func (r *Registry) copyFamilies() []famCopy {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]famCopy, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		fc := famCopy{name: f.name, help: f.help, typ: f.typ, metrics: make([]metric, 0, len(f.order))}
		for _, sig := range f.order {
			fc.metrics = append(fc.metrics, *f.metrics[sig])
		}
		out = append(out, fc)
	}
	return out
}

// Snapshot returns every family's current values, sorted by name — the
// programmatic read the `musa dse -v` stage table uses.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.copyFamilies()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		for i := range f.metrics {
			m := &f.metrics[i]
			s := SeriesSnapshot{Labels: m.labels}
			switch {
			case m.fn != nil:
				s.Value = m.fn()
			case m.c != nil:
				s.Value = float64(m.c.Value())
			case m.g != nil:
				s.Value = float64(m.g.Value())
			case m.h != nil:
				_, sum, count := m.h.snapshot()
				s.Value, s.Count = sum, count
			}
			fs.Series = append(fs.Series, s)
		}
		out = append(out, fs)
	}
	return out
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {a="b",c="d"} with extra appended last (the
// histogram le label); empty when there are no labels.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a sample value: integers without exponent, +Inf per
// the exposition format.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format, families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := r.copyFamilies()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for i := range f.metrics {
			m := &f.metrics[i]
			switch {
			case m.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(m.labels), formatValue(m.fn()))
			case m.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(m.labels), m.c.Value())
			case m.g != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(m.labels), m.g.Value())
			case m.h != nil:
				cum, sum, count := m.h.snapshot()
				for i, bound := range m.h.bounds {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						labelString(m.labels, L("le", formatValue(bound))), cum[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelString(m.labels, L("le", "+Inf")), cum[len(cum)-1])
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(m.labels), formatValue(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(m.labels), count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMetricsFile dumps the registry in exposition format to path — the
// -metrics flag of the cmd binaries ("-" writes to stderr is handled by the
// callers; this always creates a file).
func (r *Registry) WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write metrics %s: %w", path, err)
	}
	return f.Close()
}
