package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named counters, gauges and histograms. Instrument lookup
// is mutex-guarded; the instruments themselves update via atomics (counter,
// gauge) or a short critical section (histogram), so hot paths should cache
// the instrument pointer rather than re-looking it up per update. All
// methods are safe on a nil receiver: lookups return nil instruments whose
// update methods are no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that may go up and down.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments by delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	name, help string
	bounds     []float64 // sorted upper bounds; an implicit +Inf bucket follows
	mu         sync.Mutex
	counts     []uint64 // len(bounds)+1
	sum        float64
	count      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// bucketQuantile estimates the q-quantile (0 < q < 1) of a histogram's
// samples from its cumulative bucket counts, by linear interpolation
// inside the bucket containing the rank, Prometheus
// histogram_quantile-style. cum has len(bounds)+1 entries (the last is
// the +Inf bucket == total). The estimate inherits the bucket resolution:
// exact at bucket boundaries, interpolated within. Samples in the +Inf
// overflow bucket clamp to the highest finite bound. Returns NaN on an
// empty histogram or an out-of-range q.
func bucketQuantile(bounds []float64, cum []uint64, total uint64, q float64) float64 {
	if total == 0 || math.IsNaN(q) || q <= 0 || q >= 1 || len(cum) != len(bounds)+1 {
		return math.NaN()
	}
	rank := q * float64(total)
	i := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= rank })
	if i >= len(bounds) {
		// Overflow bucket: no upper bound to interpolate against.
		if len(bounds) == 0 {
			return math.NaN()
		}
		return bounds[len(bounds)-1]
	}
	upper := bounds[i]
	lower := 0.0
	if i > 0 {
		lower = bounds[i-1]
	} else if upper <= 0 {
		// All-negative first bucket: no interpolation base below it.
		return upper
	}
	prev := 0.0
	if i > 0 {
		prev = float64(cum[i-1])
	}
	inBucket := float64(cum[i]) - prev
	if inBucket == 0 {
		return upper
	}
	return lower + (upper-lower)*(rank-prev)/inBucket
}

// Count returns the number of samples (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of samples (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Fixed bucket layouts.
var (
	// DefBuckets suits generic positive quantities (counts, weights).
	DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// DurationBuckets suits sub-second code timings, in seconds
	// (1µs … 10s, roughly ×4 per step).
	DurationBuckets = []float64{
		1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4, 10,
	}
)

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, help: help}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, help: help}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket upper bounds; nil buckets means DefBuckets. The bucket
// layout of an already-registered histogram is not changed.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		h = &Histogram{name: name, help: help, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// CounterSnapshot is one counter's exported state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// HistogramSnapshot is one histogram's exported state. Buckets are
// cumulative, Prometheus-style; the final implicit +Inf bucket equals
// Count.
type HistogramSnapshot struct {
	Name    string    `json:"name"`
	Help    string    `json:"help,omitempty"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Sum     float64   `json:"sum"`
	Count   uint64    `json:"count"`
	// P50/P95/P99 are bucket-interpolated quantile estimates (see
	// bucketQuantile), 0 while the histogram is empty.
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// RegistrySnapshot is a point-in-time copy of every instrument, sorted by
// name — the JSON export format.
type RegistrySnapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current state of every instrument.
func (r *Registry) Snapshot() RegistrySnapshot {
	var snap RegistrySnapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	for _, c := range counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: c.name, Help: c.help, Value: c.Value()})
	}
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: g.name, Help: g.help, Value: g.Value()})
	}
	for _, h := range hists {
		h.mu.Lock()
		hs := HistogramSnapshot{
			Name:   h.name,
			Help:   h.help,
			Bounds: append([]float64(nil), h.bounds...),
			Sum:    h.sum,
			Count:  h.count,
		}
		cum := uint64(0)
		for _, c := range h.counts {
			cum += c
			hs.Buckets = append(hs.Buckets, cum)
		}
		h.mu.Unlock()
		if hs.Count > 0 {
			// sanitize: NaN is not valid JSON, so an unestimable quantile
			// (e.g. every sample in the +Inf bucket of a bound-less layout)
			// stays at the zero value.
			for _, pq := range []struct {
				dst *float64
				q   float64
			}{{&hs.P50, 0.50}, {&hs.P95, 0.95}, {&hs.P99, 0.99}} {
				if v := bucketQuantile(hs.Bounds, hs.Buckets, hs.Count, pq.q); !math.IsNaN(v) {
					*pq.dst = v
				}
			}
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	snap := r.Snapshot()
	for _, c := range snap.Counters {
		writeHeader(w, c.Name, c.Help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		writeHeader(w, g.Name, g.Help, "gauge")
		fmt.Fprintf(w, "%s %s\n", g.Name, formatFloat(g.Value))
	}
	for _, h := range snap.Histograms {
		writeHeader(w, h.Name, h.Help, "histogram")
		for i, b := range h.Bounds {
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.Name, escapeLabel(formatFloat(b)), h.Buckets[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count)
		fmt.Fprintf(w, "%s_sum %s\n", h.Name, formatFloat(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", h.Name, h.Count)
	}
}

// Prometheus returns the text exposition as a string.
func (r *Registry) Prometheus() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format (0.0.4): backslash, double-quote and newline become \\, \" and
// \n. Everything else — UTF-8 included — passes through verbatim (unlike
// Go's %q, which escapes non-ASCII and is not what scrapers expect).
func escapeLabel(v string) string {
	return labelEscaper.Replace(v)
}

// escapeHelp escapes HELP text per the exposition format: backslash and
// newline only (quotes are legal in help strings).
func escapeHelp(v string) string {
	return helpEscaper.Replace(v)
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// Handler serves the registry over HTTP: the Prometheus text format at the
// registered path and the JSON snapshot when the request path ends in
// ".json" (or the Accept header asks for application/json).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, ".json") ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			writeJSON(w, r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Prometheus()))
	})
}

// MetricsServer is a running HTTP endpoint exposing a registry.
type MetricsServer struct {
	srv  *http.Server
	addr string
	done chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// Addr returns the bound listen address (useful with ":0").
func (m *MetricsServer) Addr() string {
	if m == nil {
		return ""
	}
	return m.addr
}

// Close shuts the server down immediately: the listener and any active
// connections are closed and the serving goroutine has exited by the time
// Close returns. Idempotent — concurrent and repeated calls all observe
// the first call's result.
func (m *MetricsServer) Close() error {
	if m == nil {
		return nil
	}
	m.closeOnce.Do(func() {
		m.closeErr = m.srv.Close()
		<-m.done
	})
	return m.closeErr
}

// Shutdown stops the server gracefully: in-flight scrapes may finish until
// ctx expires, after which remaining connections are closed hard. Like
// Close it waits for the serving goroutine to exit and is idempotent with
// Close — whichever runs first wins.
func (m *MetricsServer) Shutdown(ctx context.Context) error {
	if m == nil {
		return nil
	}
	m.closeOnce.Do(func() {
		m.closeErr = m.srv.Shutdown(ctx)
		if m.closeErr != nil {
			_ = m.srv.Close() // deadline hit: drop the stragglers
		}
		<-m.done
	})
	return m.closeErr
}
