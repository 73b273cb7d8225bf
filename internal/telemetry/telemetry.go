// Package telemetry is the observability layer of the First-Aid runtime: a
// lightweight, allocation-free metrics registry (counters, gauges,
// histograms). What happened in each recovery is not kept here: the
// diagnosis ledger (internal/ledger) records each recovery's timed path,
// and the execution trace (internal/trace) its timeline.
//
// Production memory-bug tooling lives or dies by cheap always-on telemetry:
// an operator deciding whether to keep First-Aid enabled needs checkpoint
// cost, rollback counts and patch hits, not just end-of-run statistics.
// The design rules, in order:
//
//   - Hot-path cost is one atomic add. Instruments are resolved by name
//     once, at wiring time; the per-operation path never touches a map,
//     a lock, or the allocator.
//   - A nil *Registry is the "off" switch. Every method on a nil registry,
//     counter, gauge or histogram is a safe no-op, so instrumented code
//     carries no conditionals — it simply calls through whatever pointers
//     it was wired with.
//   - Everything is safe under the supervisor's parallel-validation
//     goroutines: instruments are atomics, registries merge cloned-machine
//     results into the parent with Merge, and snapshots may be taken while
//     a run is in flight.
package telemetry

import (
	"encoding/json"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil Counter discards all updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 level (queue depth, current interval).
// The zero value is ready to use; a nil Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts values v with bits.Len64(v) == i, i.e. bucket 0 holds v==0 and
// bucket i>0 holds 2^(i-1) <= v < 2^i.
const histBuckets = 65

// Histogram accumulates a distribution in power-of-two buckets — coarse,
// but allocation-free and mergeable, which is what the hot path needs.
// The zero value is ready to use; a nil Histogram discards all updates.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean of observed values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) from the
// power-of-two buckets: the top of the bucket in which the quantile falls.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++ // ceiling: the observation at or above the quantile point
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.max.Load()
}

// merge folds src's observations into h.
func (h *Histogram) merge(src *Histogram) {
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
	for {
		m, old := src.max.Load(), h.max.Load()
		if m <= old || h.max.CompareAndSwap(old, m) {
			break
		}
	}
	for i := range h.buckets {
		h.buckets[i].Add(src.buckets[i].Load())
	}
}

// HistogramSnapshot is the JSON view of one histogram. Buckets maps the
// inclusive upper bound of each non-empty power-of-two bucket to its count.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Max     uint64            `json:"max"`
	Mean    float64           `json:"mean"`
	P50     uint64            `json:"p50"`
	P99     uint64            `json:"p99"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// Registry names and owns a process's instruments. Lookup methods intern by
// name (get-or-create) and are meant for wiring time, not the hot path. A
// nil *Registry is a valid disabled registry: lookups return nil instruments
// whose methods are no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Merge folds src's counters and histograms into r, adding counts
// bucket-wise. The supervisor calls this when collecting a parallel
// validation: the cloned machine carries its own registry so the validation
// goroutine never contends with the main loop, and its work is accounted to
// the parent here. Gauges are instantaneous levels owned by the live
// machine and are not merged. Merging a nil src (or into a nil r) is a
// no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	// Snapshot src's instrument maps under its lock, then update r's
	// instruments outside it (instrument updates are atomic).
	src.mu.Lock()
	counters := make(map[string]*Counter, len(src.counters))
	for name, c := range src.counters {
		counters[name] = c
	}
	histograms := make(map[string]*Histogram, len(src.histograms))
	for name, h := range src.histograms {
		histograms[name] = h
	}
	src.mu.Unlock()

	for name, c := range counters {
		r.Counter(name).Add(c.Value())
	}
	for name, h := range histograms {
		r.Histogram(name).merge(h)
	}
}

// MergedSnapshot folds several registries into one snapshot: counters and
// histograms add, and gauges are dropped (instantaneous levels owned by
// their machine). Nil registries are skipped. This is the fleet-level
// view: one registry per worker plus the fleet's own, rendered as a single
// set of instruments.
func MergedSnapshot(regs ...*Registry) Snapshot {
	m := NewRegistry()
	for _, r := range regs {
		m.Merge(r)
	}
	return m.Snapshot()
}

// Snapshot is the JSON view of a registry: every instrument by name.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. It is safe to call while
// instruments are being updated; counters are read atomically (the snapshot
// is per-instrument consistent, not globally instantaneous). A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		histograms[name] = h
	}
	r.mu.Unlock()

	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range histograms {
		hs := HistogramSnapshot{
			Count:   h.Count(),
			Sum:     h.Sum(),
			Max:     h.Max(),
			Mean:    h.Mean(),
			P50:     h.Quantile(0.50),
			P99:     h.Quantile(0.99),
			Buckets: map[string]uint64{},
		}
		for i := 0; i < histBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets[bucketLabel(i)] = n
			}
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// bucketLabel renders the inclusive upper bound of bucket i.
func bucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	return formatUint(1<<uint(i) - 1)
}

func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for v > 0 {
		pos--
		buf[pos] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[pos:])
}

// MarshalJSON renders the snapshot with deterministic key order (Go's JSON
// encoder already sorts map keys; this is just the default marshalling of
// the struct, defined explicitly so the format is a documented contract).
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// CounterNames returns the sorted names of all registered counters.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
