package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestNilRegistryIsSafeNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	r.Gauge("g").Set(3)
	r.Gauge("g").Add(-1)
	r.Histogram("h").Observe(42)
	r.Merge(NewRegistry())
	NewRegistry().Merge(r)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	if r.CounterNames() != nil {
		t.Fatal("nil CounterNames not nil")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("heap.mallocs")
	c.Inc()
	c.Add(9)
	if got := r.Counter("heap.mallocs").Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	g := r.Gauge("queue")
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	// Same name resolves to the same instrument.
	if r.Counter("heap.mallocs") != c {
		t.Fatal("counter not interned")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &Histogram{}
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000, 1000, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1<<20 {
		t.Fatalf("max = %d", h.Max())
	}
	wantSum := uint64(0 + 1 + 2 + 3 + 100 + 1000 + 1000 + 1<<20)
	if h.Sum() != wantSum {
		t.Fatalf("sum = %d, want %d", h.Sum(), wantSum)
	}
	if p50 := h.Quantile(0.5); p50 < 3 || p50 > 127 {
		t.Fatalf("p50 = %d out of plausible band", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 1<<20 && p99 != 1<<21-1 {
		t.Fatalf("p99 = %d", p99)
	}
	if h.Quantile(1.0) < 1000 {
		t.Fatalf("p100 = %d", h.Quantile(1.0))
	}
	if mean := h.Mean(); mean <= 0 {
		t.Fatalf("mean = %f", mean)
	}
}

func TestMergeAggregatesCloneIntoParent(t *testing.T) {
	parent := NewRegistry()
	parent.Counter("diag.rollbacks").Add(3)
	parent.Histogram("ckpt.dirty").Observe(10)
	parent.Gauge("queue").Set(7)

	clone := NewRegistry()
	clone.Counter("diag.rollbacks").Add(4)
	clone.Counter("heap.mallocs").Add(100)
	clone.Histogram("ckpt.dirty").Observe(20)
	clone.Gauge("queue").Set(99)

	parent.Merge(clone)
	if got := parent.Counter("diag.rollbacks").Value(); got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}
	if got := parent.Counter("heap.mallocs").Value(); got != 100 {
		t.Fatalf("new counter = %d, want 100", got)
	}
	h := parent.Histogram("ckpt.dirty")
	if h.Count() != 2 || h.Sum() != 30 || h.Max() != 20 {
		t.Fatalf("merged histogram count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	// Gauges are instantaneous levels: not merged.
	if got := parent.Gauge("queue").Value(); got != 7 {
		t.Fatalf("gauge merged: %d", got)
	}
}

func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(uint64(i))
				r.Gauge("g").Set(int64(i))
			}
		}()
	}
	// Concurrent merges and snapshots must not race or corrupt.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			src := NewRegistry()
			src.Counter("m").Inc()
			r.Merge(src)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter("m").Value(); got != 100 {
		t.Fatalf("merged counter = %d, want 100", got)
	}
	if got := r.Histogram("h").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.failures").Inc()
	r.Gauge("core.pending_validations").Set(2)
	r.Histogram("ckpt.dirty_pages_per_ckpt").Observe(33)

	raw, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	if back.Counters["core.failures"] != 1 {
		t.Fatalf("counters = %+v", back.Counters)
	}
	if back.Gauges["core.pending_validations"] != 2 {
		t.Fatalf("gauges = %+v", back.Gauges)
	}
	if back.Histograms["ckpt.dirty_pages_per_ckpt"].Count != 1 {
		t.Fatalf("histograms = %+v", back.Histograms)
	}
}

func TestCounterNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z")
	r.Counter("a")
	r.Counter("m")
	names := r.CounterNames()
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("names = %v", names)
	}
}

func TestBucketLabel(t *testing.T) {
	if bucketLabel(0) != "0" {
		t.Fatal(bucketLabel(0))
	}
	if bucketLabel(1) != "1" {
		t.Fatal(bucketLabel(1))
	}
	if bucketLabel(4) != "15" {
		t.Fatal(bucketLabel(4))
	}
}

func TestMergedSnapshotAcrossRegistries(t *testing.T) {
	// Three registries model a fleet: the fleet-level registry plus one
	// per worker. MergedSnapshot must sum counters and histograms, skip
	// nils, and leave the inputs untouched.
	front := NewRegistry()
	front.Counter("fleet.submitted").Add(10)

	w0 := NewRegistry()
	w0.Counter("heap.mallocs").Add(100)
	w0.Histogram("ckpt.dirty").Observe(8)

	w1 := NewRegistry()
	w1.Counter("heap.mallocs").Add(50)
	w1.Histogram("ckpt.dirty").Observe(24)
	w1.Gauge("queue").Set(5)

	snap := MergedSnapshot(front, nil, w0, w1)
	if got := snap.Counters["fleet.submitted"]; got != 10 {
		t.Fatalf("fleet counter = %d, want 10", got)
	}
	if got := snap.Counters["heap.mallocs"]; got != 150 {
		t.Fatalf("summed counter = %d, want 150", got)
	}
	h, ok := snap.Histograms["ckpt.dirty"]
	if !ok || h.Count != 2 || h.Sum != 32 || h.Max != 24 {
		t.Fatalf("merged histogram = %+v (ok=%v)", h, ok)
	}
	// Gauges are instantaneous levels of one registry — dropped.
	if _, ok := snap.Gauges["queue"]; ok {
		t.Fatal("gauge leaked into merged snapshot")
	}
	// Merging reads, never writes.
	if w0.Counter("heap.mallocs").Value() != 100 {
		t.Fatal("MergedSnapshot mutated a source registry")
	}
}
