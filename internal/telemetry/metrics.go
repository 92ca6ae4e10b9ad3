package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// value is a float64 cell updated with atomic bit operations; the
// building block of counters and gauges.
type value struct{ bits atomic.Uint64 }

func (v *value) Load() float64 { return math.Float64frombits(v.bits.Load()) }
func (v *value) Store(f float64) {
	v.bits.Store(math.Float64bits(f))
}
func (v *value) Add(d float64) {
	for {
		old := v.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing metric.
type Counter struct{ v *value }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter; negative deltas panic (counters only go up).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("telemetry: counter add of negative delta %g", d))
	}
	c.v.Add(d)
}

// Value reads the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v *value }

// Set replaces the gauge value.
func (g *Gauge) Set(f float64) { g.v.Store(f) }

// Add shifts the gauge by d (negative deltas allowed).
func (g *Gauge) Add(d float64) { g.v.Add(d) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return g.v.Load() }

// DefBuckets are the default latency buckets, in seconds (the classic
// Prometheus ladder: 5 ms … 10 s).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n buckets starting at start and growing by factor —
// a geometric ladder for quantities with a wide dynamic range.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	buckets []float64
	counts  []atomic.Uint64 // len(buckets)+1; last is +Inf
	sum     value
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i-1] < buckets[i]) {
			panic(fmt.Sprintf("telemetry: histogram buckets not ascending at %d: %v", i, buckets))
		}
	}
	return &Histogram{
		buckets: append([]float64(nil), buckets...),
		counts:  make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the seconds elapsed since t0 — the idiomatic call
// for latency histograms: defer h.ObserveSince(time.Now()).
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts,
// interpolating linearly within the containing bucket (the same estimate
// Prometheus's histogram_quantile computes). Samples in the +Inf bucket
// clamp to the highest finite bound. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.buckets {
		cum += float64(h.counts[i].Load())
		if cum >= rank {
			hi := h.buckets[i]
			lo := 0.0
			if i > 0 {
				lo = h.buckets[i-1]
			}
			inBucket := float64(h.counts[i].Load())
			if inBucket == 0 {
				return hi
			}
			frac := (rank - (cum - inBucket)) / inBucket
			return lo + frac*(hi-lo)
		}
	}
	return h.buckets[len(h.buckets)-1] // rank fell in +Inf
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, nil, nil)
	s := f.get(nil, func() *series { return &series{val: &value{}} })
	return &Counter{v: s.val}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for externally maintained monotonic counts.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindCounter, nil, nil)
	f.get(nil, func() *series { return &series{fn: fn} })
}

// LabeledCounterFunc is CounterFunc with one fixed label setting, so a
// family like artisan_resilience_events_total{event="retries"} can fold
// several external counters into one metric.
func (r *Registry) LabeledCounterFunc(name, help string, labels, values []string, fn func() float64) {
	f := r.lookup(name, help, kindCounter, labels, nil)
	f.get(values, func() *series { return &series{fn: fn} })
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, nil, nil)
	s := f.get(nil, func() *series { return &series{val: &value{}} })
	return &Gauge{v: s.val}
}

// GaugeFunc registers a gauge read from fn at scrape time (queue depths,
// cache sizes, goroutine counts).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindGauge, nil, nil)
	f.get(nil, func() *series { return &series{fn: fn} })
}

// Histogram registers (or finds) an unlabeled histogram. Nil buckets
// take DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, kindHistogram, nil, buckets)
	s := f.get(nil, func() *series { return &series{hist: newHistogram(f.buckets)} })
	return s.hist
}

// CounterVec is a counter family with labels; With addresses one series.
type CounterVec struct{ fam *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.lookup(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values (created on first
// use); arity mismatches panic.
func (v *CounterVec) With(values ...string) *Counter {
	s := v.fam.get(values, func() *series { return &series{val: &value{}} })
	return &Counter{v: s.val}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.lookup(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	s := v.fam.get(values, func() *series { return &series{val: &value{}} })
	return &Gauge{v: s.val}
}

// HistogramVec is a histogram family with labels; all series share the
// family's buckets.
type HistogramVec struct{ fam *family }

// HistogramVec registers a labeled histogram family. Nil buckets take
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.lookup(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	s := v.fam.get(values, func() *series { return &series{hist: newHistogram(v.fam.buckets)} })
	return s.hist
}
