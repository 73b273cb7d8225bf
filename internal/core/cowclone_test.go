package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"firstaid/internal/apps"
	"firstaid/internal/mmbug"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/vmem"
)

// TestCloneCanMapLargeBlock is the machine-level regression test for the
// Clone budget bug: the cloned Space dropped its memory budget, so the
// first large allocation in a validation clone (>= the allocator's mmap
// threshold, hence a vmem.Map) spuriously failed with out-of-memory and
// the validation run reported a fault the parent could never reproduce.
func TestCloneCanMapLargeBlock(t *testing.T) {
	a, _ := apps.New("squid")
	log := a.Workload(100, nil)
	m := NewMachine(a, log, MachineConfig{})
	for i := 0; i < 20; i++ {
		if f, ok := m.Step(); !ok || f != nil {
			t.Fatalf("step %d: %v", i, f)
		}
	}
	clone := m.Clone()
	var addr uint32
	if f := proc.Catch(func() {
		defer clone.Proc.Enter("validation_big_alloc")()
		addr = clone.Proc.Malloc(1 << 20) // mmap-path allocation
		clone.Proc.Memset(addr, 0x7C, 1<<20)
	}); f != nil {
		t.Fatalf("1 MiB allocation in clone faulted: %v", f)
	}
	if v, err := clone.Mem.ReadU32(addr); err != nil || v != 0x7C7C7C7C {
		t.Fatalf("clone mapped block: %#x, %v", v, err)
	}
	// The parent must not see the clone's mapping.
	if _, err := m.Mem.ReadU32(addr); err == nil {
		t.Fatal("parent can read the clone's private mapping")
	}
}

// bigHeapApp allocates a configurable amount of live sbrk heap in Init and
// then touches it round-robin — the substrate for clone benchmarks and COW
// stress, where the interesting variable is resident heap size. With churn
// set, events also rewrite whole blocks (some straddle page-table leaf
// boundaries) and allocate, fill and free blocks large enough for the
// allocator's Map path, so page-table leaves are copied, added and
// dropped while clones share them.
type bigHeapApp struct {
	blocks int // 64 KiB each
	churn  bool
}

func (b *bigHeapApp) Name() string       { return "bigheap" }
func (b *bigHeapApp) Bugs() []mmbug.Type { return nil }

func (b *bigHeapApp) Init(p *proc.Proc) {
	defer p.Enter("bigheap_init")()
	table := p.Malloc(uint32(4 * b.blocks))
	p.SetRoot(0, table)
	for i := 0; i < b.blocks; i++ {
		a := p.Malloc(64 << 10)
		p.Memset(a, 0xB5, 64<<10)
		p.StoreU32(table+uint32(4*i), a)
	}
}

func (b *bigHeapApp) Handle(p *proc.Proc, ev replay.Event) {
	defer p.Enter("bigheap_handle")()
	table := p.RootAddr(0)
	i := ev.Seq % b.blocks
	a := p.LoadU32(table + uint32(4*i))
	p.StoreU32(a+uint32(4*(ev.Seq%1000)), uint32(ev.Seq))
	if b.churn {
		if ev.Seq%8 == 0 {
			p.Memset(a, byte(ev.Seq), 64<<10)
		}
		if ev.Seq%10 == 0 {
			big := p.Malloc(300 << 10) // Map path: 76 pages over two leaves
			p.Memset(big, byte(ev.Seq), 300<<10)
			p.StoreU32(a, p.LoadU32(big+(300<<10)-4))
			p.Free(big)
		}
	}
	p.Tick(1000)
}

func bigHeapLog(events int) *replay.Log {
	log := replay.NewLog()
	for i := 0; i < events; i++ {
		log.Append("touch", "", 0)
	}
	return log
}

// TestConcurrentCloneStress runs N validation-style COW clones to
// completion on their own goroutines while the parent keeps executing,
// checkpointing and rolling back. The churning app makes every side write
// across page-table leaf boundaries and Map and Unmap regions that span
// leaves. Deterministic machines must all agree, on clock and on every
// heap byte, and under -race this doubles as the machine-level COW race
// check.
func TestConcurrentCloneStress(t *testing.T) {
	const clones = 4
	a := &bigHeapApp{blocks: 32, churn: true} // 2 MiB live heap
	m := NewMachine(a, bigHeapLog(400), MachineConfig{})
	for i := 0; i < 50; i++ {
		if f, ok := m.Step(); !ok || f != nil {
			t.Fatalf("step %d: %v", i, f)
		}
	}

	clocks := make([]uint64, clones)
	heaps := make([][]byte, clones)
	var wg sync.WaitGroup
	for c := 0; c < clones; c++ {
		clone := m.Clone()
		wg.Add(1)
		go func(c int, clone *Machine) {
			defer wg.Done()
			for {
				f, ok := clone.Step()
				if !ok {
					break
				}
				if f != nil {
					t.Errorf("clone %d faulted: %v", c, f)
					return
				}
				if clone.Log.Cursor()%40 == 0 {
					clone.Ckpt.Take()
				}
			}
			clocks[c] = clone.Proc.Clock()
			heaps[c], _ = clone.Mem.Read(vmem.HeapBase, int(clone.Mem.MappedBytes()))
		}(c, clone)
	}
	// Parent: keep executing with checkpoint/rollback churn while the
	// clones replay the same events over shared COW pages.
	for i := 0; i < 100; i++ {
		if f, ok := m.Step(); !ok || f != nil {
			break
		}
		if i%20 == 10 {
			cp := m.Ckpt.Take()
			m.Rollback(cp)
		}
	}
	wg.Wait()
	for c := 1; c < clones; c++ {
		if clocks[c] != clocks[0] {
			t.Fatalf("clone %d finished at clock %d, clone 0 at %d", c, clocks[c], clocks[0])
		}
		if !bytes.Equal(heaps[c], heaps[0]) {
			t.Fatalf("clone %d finished with a different heap image than clone 0", c)
		}
	}
}

// BenchmarkMachineCloneGuard enforces the Machine.Clone acceptance number:
// on a 16 MiB live heap the COW clone must be >= 10x faster than the deep
// (SlowMemPaths) clone. Fixed-size interleaved rounds, best-of, one
// re-measure — the repo's guard shape.
func BenchmarkMachineCloneGuard(b *testing.B) {
	const (
		target = 10.0
		clones = 8
		rounds = 4
	)
	a := &bigHeapApp{blocks: 256} // 16 MiB live heap
	m := NewMachine(a, bigHeapLog(64), MachineConfig{})
	for {
		if _, ok := m.Step(); !ok {
			break
		}
	}

	run := func(deep bool) time.Duration {
		m.cfg.SlowMemPaths = deep
		t0 := time.Now()
		for i := 0; i < clones; i++ {
			_ = m.Clone()
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
		run(true) // warmup
		run(false)
		for r := 0; r < rounds; r++ {
			deep = best(run(true), deep)
			cow = best(run(false), cow)
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
	m.cfg.SlowMemPaths = false
	b.ReportMetric(speedup, "speedup-x")
	if speedup < target {
		b.Fatalf("COW Machine.Clone is %.2fx the deep clone on a 16 MiB heap, want >= %.1fx", speedup, target)
	}
}
