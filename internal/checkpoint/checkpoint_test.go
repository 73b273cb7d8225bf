package checkpoint

import (
	"runtime"
	"testing"

	"firstaid/internal/allocext"
	"firstaid/internal/callsite"
	"firstaid/internal/heap"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/vmem"
)

type world struct {
	mem *vmem.Space
	h   *heap.Heap
	p   *proc.Proc
	ext *allocext.Ext
	log *replay.Log
	mgr *Manager
}

func newWorld(t testing.TB, cfg Config) *world {
	t.Helper()
	mem := vmem.New(64 << 20)
	h := heap.New(mem)
	sites := callsite.NewTable()
	ext := allocext.New(h, sites)
	p := proc.New(mem, ext)
	p.Sites = sites
	log := replay.NewLog()
	for i := 0; i < 100; i++ {
		log.Append("op", "", i)
	}
	return &world{mem: mem, h: h, p: p, ext: ext, log: log,
		mgr: NewManager(cfg, mem, h, p, ext, log)}
}

func (w *world) alloc(t testing.TB, n uint32) vmem.Addr {
	t.Helper()
	var a vmem.Addr
	if f := proc.Catch(func() {
		defer w.p.Enter("test")()
		a = w.p.Malloc(n)
	}); f != nil {
		t.Fatalf("alloc fault: %v", f)
	}
	return a
}

func TestTakeAndRollbackRestoreEverything(t *testing.T) {
	w := newWorld(t, Config{})
	a := w.alloc(t, 64)
	w.mem.Write(a, []byte("checkpointed"))
	w.p.SetRoot(1, 77)
	w.log.Next()
	w.log.Next()

	cp := w.mgr.Take()
	if cp.Cursor != 2 {
		t.Fatalf("cursor = %d", cp.Cursor)
	}

	// Mutate everything.
	b := w.alloc(t, 128)
	w.mem.Write(a, []byte("overwritten!"))
	w.p.SetRoot(1, 0)
	w.p.Tick(12345)
	w.log.Next()
	_ = b

	w.mgr.Rollback(cp)
	got, _ := w.mem.Read(a, 12)
	if string(got) != "checkpointed" {
		t.Fatalf("heap contents = %q", got)
	}
	if w.p.Root(1) != 77 {
		t.Fatal("roots not restored")
	}
	if w.p.Clock() != cp.Clock {
		t.Fatal("clock not restored")
	}
	if w.log.Cursor() != 2 {
		t.Fatalf("log cursor = %d", w.log.Cursor())
	}
	// The extension's object table must be restored too: b is gone.
	if _, ok := w.ext.Object(b); ok {
		t.Fatal("post-checkpoint object survived rollback")
	}
	if _, ok := w.ext.Object(a); !ok {
		t.Fatal("pre-checkpoint object lost")
	}
}

func TestRollbackSameCheckpointRepeatedly(t *testing.T) {
	w := newWorld(t, Config{})
	a := w.alloc(t, 32)
	w.mem.WriteU32(a, 1)
	cp := w.mgr.Take()
	for i := 0; i < 5; i++ {
		w.mem.WriteU32(a, uint32(100+i))
		w.alloc(t, 64)
		w.mgr.Rollback(cp)
		if v, _ := w.mem.ReadU32(a); v != 1 {
			t.Fatalf("iteration %d: %d", i, v)
		}
		if err := w.h.CheckIntegrity(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestMaybeCheckpointHonoursInterval(t *testing.T) {
	w := newWorld(t, Config{Interval: 1000})
	w.mgr.Take()
	if cp := w.mgr.MaybeCheckpoint(); cp != nil {
		t.Fatal("checkpoint before interval elapsed")
	}
	w.p.Tick(1001)
	if cp := w.mgr.MaybeCheckpoint(); cp == nil {
		t.Fatal("no checkpoint after interval elapsed")
	}
}

func TestKeepLimitEvictsOldest(t *testing.T) {
	w := newWorld(t, Config{Keep: 3})
	for i := 0; i < 6; i++ {
		w.mgr.Take()
	}
	cps := w.mgr.Checkpoints()
	if len(cps) != 3 {
		t.Fatalf("kept = %d", len(cps))
	}
	if cps[0].Seq != 3 || cps[2].Seq != 5 {
		t.Fatalf("wrong survivors: %v %v", cps[0], cps[2])
	}
	if w.mgr.Latest() != cps[2] {
		t.Fatal("Latest mismatch")
	}
}

func TestDropAfter(t *testing.T) {
	w := newWorld(t, Config{})
	c0 := w.mgr.Take()
	w.mgr.Take()
	w.mgr.Take()
	w.mgr.DropAfter(c0)
	cps := w.mgr.Checkpoints()
	if len(cps) != 1 || cps[0] != c0 {
		t.Fatalf("checkpoints after drop: %v", cps)
	}
}

func TestCheckpointCostChargedToClock(t *testing.T) {
	w := newWorld(t, Config{})
	a := w.alloc(t, 10*vmem.PageSize)
	w.mgr.Take()
	// Dirty 10 pages.
	for i := 0; i < 10; i++ {
		w.mem.Write(a+vmem.Addr(i*vmem.PageSize), []byte{1})
	}
	before := w.p.Clock()
	w.mgr.Take()
	charged := w.p.Clock() - before
	if charged < 10*CostPerCOWPage {
		t.Fatalf("charged %d cycles for 10 COW pages, want ≥ %d", charged, 10*CostPerCOWPage)
	}
}

func TestAdaptiveIntervalGrowsUnderHeavyDirtying(t *testing.T) {
	cfg := Config{Interval: 100_000, Adaptive: true, OverheadTarget: 0.02}
	w := newWorld(t, cfg)
	a := w.alloc(t, 4<<20)
	w.mgr.Take()
	base := w.mgr.Interval()
	// Dirty heavily across several intervals.
	off := vmem.Addr(0)
	for i := 0; i < 10; i++ {
		for j := 0; j < 200; j++ {
			w.mem.Write(a+off, []byte{byte(j)})
			off = (off + vmem.PageSize) % (4 << 20)
		}
		w.p.Tick(cfg.Interval)
		w.mgr.MaybeCheckpoint()
	}
	if w.mgr.Interval() <= base {
		t.Fatalf("interval did not grow: %d", w.mgr.Interval())
	}
	if w.mgr.Interval() > 8*base {
		t.Fatalf("interval exceeded Tcheckpoint cap: %d", w.mgr.Interval())
	}
}

func TestAdaptiveIntervalShrinksBackWhenQuiet(t *testing.T) {
	cfg := Config{Interval: 100_000, Adaptive: true, OverheadTarget: 0.02}
	w := newWorld(t, cfg)
	a := w.alloc(t, 4<<20)
	w.mgr.Take()
	off := vmem.Addr(0)
	for i := 0; i < 10; i++ {
		for j := 0; j < 200; j++ {
			w.mem.Write(a+off, []byte{1})
			off = (off + vmem.PageSize) % (4 << 20)
		}
		w.p.Tick(cfg.Interval)
		w.mgr.MaybeCheckpoint()
	}
	grown := w.mgr.Interval()
	// Quiet phase: no dirtying at all.
	for i := 0; i < 30; i++ {
		w.p.Tick(grown)
		w.mgr.MaybeCheckpoint()
	}
	if w.mgr.Interval() >= grown {
		t.Fatalf("interval did not shrink back: %d (was %d)", w.mgr.Interval(), grown)
	}
}

func TestStatsAccumulate(t *testing.T) {
	w := newWorld(t, Config{})
	a := w.alloc(t, 8*vmem.PageSize)
	w.mgr.Take()
	for i := 0; i < 8; i++ {
		w.mem.Write(a+vmem.Addr(i*vmem.PageSize), []byte{1})
	}
	w.p.Tick(DefaultInterval)
	w.mgr.Take()
	st := w.mgr.Stats()
	if st.Taken != 2 {
		t.Fatalf("taken = %d", st.Taken)
	}
	if st.TotalDirtyPages < 8 {
		t.Fatalf("dirty pages = %d", st.TotalDirtyPages)
	}
	if st.MBPerCheckpoint() <= 0 || st.MBPerSecond() <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
}

func TestRollbackDiscardsDirtFromAbandonedTimeline(t *testing.T) {
	w := newWorld(t, Config{})
	a := w.alloc(t, 16*vmem.PageSize)
	cp := w.mgr.Take()
	for i := 0; i < 16; i++ {
		w.mem.Write(a+vmem.Addr(i*vmem.PageSize), []byte{1})
	}
	w.mgr.Rollback(cp)
	before := w.p.Clock()
	w.mgr.Take()
	// The 16 dirtied pages belong to the abandoned timeline; they must
	// not be charged to the new checkpoint.
	if charged := w.p.Clock() - before; charged > 4*CostPerCOWPage+costTake {
		t.Fatalf("abandoned dirt charged: %d cycles", charged)
	}
}

// TestRollbackIsODirty pins the O(dirty) rollback property end to end at
// the manager level: with a 16 MiB resident heap (4096 pages) and a
// steady-state diagnose-style loop that dirties a handful of pages per
// iteration, the bytes allocated per rollback must stay far below the 32
// KiB page-table slice plus mmap map that an O(pages) restore would
// rebuild each time.
func TestRollbackIsODirty(t *testing.T) {
	w := newWorld(t, Config{})
	base := w.alloc(t, 16<<20)
	if f := proc.Catch(func() {
		defer w.p.Enter("test")()
		w.p.Memset(base, 0xA5, 16<<20)
	}); f != nil {
		t.Fatal(f)
	}
	cp := w.mgr.Take()
	loop := func(n int) {
		for i := 0; i < n; i++ {
			for pg := 0; pg < 8; pg++ {
				w.mem.WriteU32(base+vmem.Addr(pg)*vmem.PageSize, uint32(i))
			}
			w.mgr.Rollback(cp)
		}
	}
	loop(32) // steady state: leaf and page freelists warm

	const iters = 512
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loop(iters)
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / iters
	if perOp > 8192 {
		t.Fatalf("rollback allocates %.0f B/op on a 16 MiB heap; want O(dirty), not O(pages)", perOp)
	}

	// And the rollback must still be exact.
	if v, err := w.mem.ReadU32(base); err != nil || v != 0xA5A5A5A5 {
		t.Fatalf("heap after rollback loop: %#x, %v", v, err)
	}
}
