package vmem

import (
	"runtime"
	"testing"
	"time"
)

// benchSpace returns a Space with heapBytes of sbrk heap, every page
// written once so all frames are resident and private.
func benchSpace(tb testing.TB, heapBytes int) (*Space, Addr) {
	tb.Helper()
	s := New(64 << 20)
	base, err := s.Sbrk(uint32(heapBytes))
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Fill(base, 0xA5, heapBytes); err != nil {
		tb.Fatal(err)
	}
	return s, base
}

var benchHeapSizes = []struct {
	name  string
	bytes int
}{
	{"1MiB", 1 << 20},
	{"16MiB", 16 << 20},
}

func BenchmarkSnapshot(b *testing.B) {
	for _, sz := range benchHeapSizes {
		b.Run(sz.name, func(b *testing.B) {
			s, _ := benchSpace(b, sz.bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := s.Snapshot()
				b.StopTimer()
				snap.Release()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRestore measures the steady-state rollback loop of diagnosis:
// dirty a handful of pages, rewind to the checkpoint, repeat. Restore
// points the root back at the checkpoint's leaves and the leaf and page
// freelists recycle what it drops, so the per-iteration cost is O(dirty)
// and allocation-free regardless of heap size.
func BenchmarkRestore(b *testing.B) {
	const dirtyPages = 8
	for _, sz := range benchHeapSizes {
		b.Run(sz.name, func(b *testing.B) {
			s, base := benchSpace(b, sz.bytes)
			snap := s.Snapshot()
			defer snap.Release()
			touch := func(i int) {
				for pg := 0; pg < dirtyPages; pg++ {
					s.WriteU32(base+Addr(pg*PageSize), uint32(i))
				}
			}
			// Warm the freelists.
			for i := 0; i < 8; i++ {
				touch(i)
				s.Restore(snap)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				touch(i)
				s.Restore(snap)
			}
		})
	}
}

func BenchmarkClone(b *testing.B) {
	for _, sz := range benchHeapSizes {
		b.Run(sz.name, func(b *testing.B) {
			s, _ := benchSpace(b, sz.bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Clone()
			}
		})
	}
}

func BenchmarkCloneCOW(b *testing.B) {
	for _, sz := range benchHeapSizes {
		b.Run(sz.name, func(b *testing.B) {
			s, _ := benchSpace(b, sz.bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.CloneCOW()
			}
		})
	}
}

// BenchmarkWordAccessGuard enforces the micro-TLB design win in-process:
// aligned ReadU32/WriteU32 with the fast paths on must beat the original
// byte-assembly route by at least 2x. Interleaved best-of rounds with one
// re-measure, the repo's standard guard shape.
func BenchmarkWordAccessGuard(b *testing.B) {
	const (
		target = 2.0
		ops    = 1 << 20
		rounds = 5
	)

	run := func(fast bool) time.Duration {
		s, base := benchSpace(b, 1<<20)
		s.SetFastPaths(fast)
		t0 := time.Now()
		var acc uint32
		for i := 0; i < ops; i++ {
			a := base + Addr(i*8)%(1<<19)
			s.WriteU32(a, uint32(i))
			v, _ := s.ReadU32(a)
			acc += v
		}
		runtime.KeepAlive(acc)
		return time.Since(t0)
	}

	measure := func() float64 {
		best := func(d, prev time.Duration) time.Duration {
			if prev == 0 || d < prev {
				return d
			}
			return prev
		}
		var slow, fast time.Duration
		run(false) // warmup
		run(true)
		for r := 0; r < rounds; r++ {
			slow = best(run(false), slow)
			fast = best(run(true), fast)
		}
		return float64(slow) / float64(fast)
	}

	speedup := 0.0
	for i := 0; i < b.N; i++ {
		for attempt := 0; attempt < 2; attempt++ {
			speedup = measure()
			if speedup >= target {
				break
			}
		}
	}
	b.ReportMetric(speedup, "speedup-x")
	if speedup < target {
		b.Fatalf("word fast path is %.2fx the byte path, want >= %.1fx", speedup, target)
	}
}

// BenchmarkCloneCOWGuard enforces the validation-clone acceptance numbers
// on a 16 MiB heap: CloneCOW must be >= 10x faster than the deep Clone and
// allocate O(page-table root) — a handful of allocations (root slice and
// Space shell), not one per page.
func BenchmarkCloneCOWGuard(b *testing.B) {
	const (
		target    = 10.0
		clones    = 20
		rounds    = 4
		allocsMax = 16
	)
	s, _ := benchSpace(b, 16<<20)

	run := func(cow bool) time.Duration {
		t0 := time.Now()
		for i := 0; i < clones; i++ {
			if cow {
				_ = s.CloneCOW()
			} else {
				_ = s.Clone()
			}
		}
		return time.Since(t0)
	}

	measure := func() float64 {
		best := func(d, prev time.Duration) time.Duration {
			if prev == 0 || d < prev {
				return d
			}
			return prev
		}
		var deep, cow time.Duration
		run(false) // warmup
		run(true)
		for r := 0; r < rounds; r++ {
			deep = best(run(false), deep)
			cow = best(run(true), cow)
		}
		return float64(deep) / float64(cow)
	}

	speedup := 0.0
	for i := 0; i < b.N; i++ {
		for attempt := 0; attempt < 2; attempt++ {
			speedup = measure()
			if speedup >= target {
				break
			}
		}
	}
	allocs := testing.AllocsPerRun(10, func() { _ = s.CloneCOW() })
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(allocs, "clone-allocs")
	if speedup < target {
		b.Fatalf("CloneCOW is %.2fx deep Clone on a 16 MiB heap, want >= %.1fx", speedup, target)
	}
	if allocs > allocsMax {
		b.Fatalf("CloneCOW makes %.0f allocations, want O(page-table) <= %d", allocs, allocsMax)
	}
}

// BenchmarkRestoreAllocGuard proves Restore is O(dirty), not O(pages): in
// the steady-state rollback loop on a 16 MiB heap (4096 pages, 8 dirtied
// per iteration) the bytes allocated per restore must be far below the 32
// KiB page-table slice an O(pages) restore would rebuild every time.
// Restore swaps the one root slot whose leaf was copied, the mmap map is
// reused in place, and the leaf and page freelists recycle the COW copies,
// so what remains is one small page header per COW copy.
func BenchmarkRestoreAllocGuard(b *testing.B) {
	const (
		dirtyPages  = 8
		iters       = 512
		maxBytesPer = 4096.0
	)
	s, base := benchSpace(b, 16<<20)
	snap := s.Snapshot()
	defer snap.Release()
	loop := func(n int) {
		for i := 0; i < n; i++ {
			for pg := 0; pg < dirtyPages; pg++ {
				s.WriteU32(base+Addr(pg*PageSize), uint32(i))
			}
			s.Restore(snap)
		}
	}
	loop(32) // reach the freelist steady state

	bytesPer := 0.0
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		loop(iters)
		runtime.ReadMemStats(&after)
		bytesPer = float64(after.TotalAlloc-before.TotalAlloc) / iters
	}
	b.ReportMetric(bytesPer, "B/restore")
	if bytesPer > maxBytesPer {
		b.Fatalf("steady-state Restore allocates %.0f B/op on a 16 MiB heap, want O(dirty) <= %.0f", bytesPer, maxBytesPer)
	}
}
