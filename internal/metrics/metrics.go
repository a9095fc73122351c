// Package metrics is a minimal, dependency-free instrumentation
// library exposing counters, gauges, and histograms in the Prometheus
// text exposition format.
//
// It exists instead of the official client library because the repo's
// dependency budget is the Go standard library, and because the hot
// paths being instrumented (per-flip, per-store-op) cannot afford the
// allocation or locking profile of a general-purpose library. Every
// instrument's mutating path is a single atomic operation; the only
// locks live on the cold paths (registration and scraping).
//
// Instruments are created against a Registry and written out with
// WritePrometheus or served by Handler. Packages declare their
// instruments as package-level vars against the Default registry, so
// one /metrics endpoint sees everything regardless of which subsystems
// a process wires together.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// collector is anything that can render itself as one Prometheus
// metric family.
type collector interface {
	write(w io.Writer)
}

// Registry holds a set of instruments and renders them in registration
// order, which keeps scrapes stable and diffs readable.
type Registry struct {
	mu         sync.Mutex
	names      map[string]bool
	collectors []collector
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// defaultRegistry backs Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level
// instruments register against.
func Default() *Registry { return defaultRegistry }

// register adds a collector, panicking on a duplicate name: instrument
// names are API, and two instruments silently sharing one would corrupt
// every dashboard built on it.
func (r *Registry) register(name string, c collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("metrics: duplicate registration of " + name)
	}
	r.names[name] = true
	r.collectors = append(r.collectors, c)
}

// WritePrometheus renders every registered instrument in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	cs := make([]collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.Unlock()
	for _, c := range cs {
		c.write(w)
	}
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscaper escapes a label value as the text format does: only
// backslash, double quote and line feed, so ParseText reads back every
// byte (Go's %q would escape more than the format unescapes).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter is a monotonically increasing uint64. Inc/Add are a single
// atomic add.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter creates and registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// Gauge is an instantaneous int64 value (queue depths, subscriber
// counts). All mutators are single atomic ops.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge creates and registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.v.Load())
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free: one atomic add for the bucket, one for the count, and a
// CAS loop on the float64-bits sum. Bucket counts are exported
// cumulatively with an implicit +Inf bucket, per the Prometheus
// histogram convention.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds, +Inf implicit
	counts     []atomic.Uint64
	count      atomic.Uint64
	sumBits    atomic.Uint64
}

// DefaultLatencyBuckets spans microseconds to seconds, suiting both
// in-memory store hits and remote HTTP round trips.
var DefaultLatencyBuckets = []float64{
	0.000001, 0.00001, 0.0001, 0.001, 0.01, 0.1, 1, 10,
}

// NewHistogram creates and registers a histogram with the given bucket
// upper bounds (ascending; +Inf is implicit). Nil bounds means
// DefaultLatencyBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending: " + name)
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(name, h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
}

// CounterVec is a family of counters split by one label. Children are
// created up front with WithLabel (a lock plus map insert), after which
// each child is a plain Counter — the hot path never touches the map.
type CounterVec struct {
	name, help, label string
	mu                sync.Mutex
	children          map[string]*Counter
	order             []string
}

// NewCounterVec creates and registers a one-label counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label, children: map[string]*Counter{}}
	r.register(name, v)
	return v
}

// WithLabel returns the child counter for the given label value,
// creating it on first use. Callers should capture the child once
// rather than calling WithLabel per observation.
func (v *CounterVec) WithLabel(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[value]; ok {
		return c
	}
	c := &Counter{name: v.name}
	v.children[value] = c
	v.order = append(v.order, value)
	return c
}

func (v *CounterVec) write(w io.Writer) {
	writeHeader(w, v.name, v.help, "counter")
	v.mu.Lock()
	order := append([]string(nil), v.order...)
	children := make([]*Counter, len(order))
	for i, val := range order {
		children[i] = v.children[val]
	}
	v.mu.Unlock()
	for i, val := range order {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", v.name, v.label, labelEscaper.Replace(val), children[i].Value())
	}
}
